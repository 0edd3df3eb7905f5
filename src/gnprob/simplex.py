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
costs are compared by their integer numerators. The objective row is the
last row of the tableau and is updated by the same pivots. Every pivot is
on a positive entry, so D stays positive. Optima are therefore
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
    """Row r < len(basis) holds D times row r of the normalized (Fraction)
    tableau, so every basic column reads D in its own row and 0 elsewhere,
    and the basic variable of row r has the value rows[r][-1] / D. The
    last row is the objective row: D times the reduced costs, with -D times
    the objective value in its last entry. Every pivot is on a positive
    entry, so D stays positive."""

    def __init__(self, rows, basis, ncols):
        self.rows = rows + [[0] * (ncols + 1)]  # int lists, last entry is the rhs
        self.basis = basis          # basic variable of each constraint row
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
        self.d = p
        self.basis[row] = col

    def run(self, cost: list[int], banned: Sequence[int]) -> str:
        """Maximize cost'x from the current basis. Returns "optimal" or
        "unbounded". ``cost`` has one integer entry per column and is
        first reduced against the current basis into the objective row."""
        rows = self.rows
        z = [self.d * c for c in cost] + [0]
        for line, b in zip(rows, self.basis):
            cb = cost[b]
            if cb:
                z = [a - cb * v for a, v in zip(z, line)]
        rows[-1] = z
        while True:
            z = rows[-1]
            enter = -1
            for j in range(self.ncols):
                if z[j] > 0 and j not in banned:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            for r, b in enumerate(self.basis):
                line = rows[r]
                a = line[enter]
                # ratio line[-1] / a against the best num / den so far,
                # cross-multiplied: both denominators are positive
                if a > 0 and (
                    leave < 0
                    or line[-1] * den < num * a
                    or (line[-1] * den == num * a and b < self.basis[leave])
                ):
                    leave, num, den = r, line[-1], a
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def solve_lp(
    objective: Sequence, constraints: Sequence[Constraint], *, maximize: bool = True
) -> LpResult:
    """Solve max (or min) objective'x subject to the constraints, x >= 0."""
    cost, cost_scale = _integer_row(objective)
    if not maximize:
        cost = [-v for v in cost]
    n = len(cost)

    rows = []
    for coeffs, rel, b in constraints:
        row, scale = _integer_row([*coeffs, b])
        if len(row) != n + 1:
            raise ValidationError(f"constraint width {len(row) - 1} != {n} variables")
        if rel not in ("<=", ">=", "=="):
            raise ValidationError(f"unknown relation {rel!r}")
        if row[-1] < 0:
            row = [-v for v in row]
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        rows.append((row, rel, scale))

    # Column layout: structural | slack/surplus | artificial.
    slack = n
    art = first_art = n + sum(rel != "==" for _, rel, _ in rows)
    ncols = first_art + sum(rel != "<=" for _, rel, _ in rows)
    # Row i was scaled by the lcm s_i of its denominators, which scales
    # its artificial by s_i too; the phase-1 cost -1 of the unscaled
    # artificial becomes -1/s_i, here times the positive lcm of the s_i.
    top = lcm(*(scale for _, rel, scale in rows if rel != "<="))
    phase1 = [0] * ncols
    table, basis = [], []
    for row, rel, scale in rows:
        line = row[:n] + [0] * (ncols - n) + row[n:]
        if rel != "==":
            line[slack] = 1 if rel == "<=" else -1
            slack += 1
        if rel == "<=":
            basis.append(slack - 1)
        else:
            line[art] = 1
            phase1[art] = -(top // scale)
            basis.append(art)
            art += 1
        table.append(line)

    tab = _Tableau(table, basis, ncols)
    artificials = range(first_art, ncols)

    if artificials:
        if tab.run(phase1, banned=()) != "optimal":
            raise AssertionError("phase 1 is always bounded")
        if any(line[-1] > 0 for line, b in zip(tab.rows, tab.basis) if b in artificials):
            return LpResult("infeasible", None, None)
        # Pivot leftover artificials out of the basis where possible;
        # a row with no eligible pivot is redundant and can be ignored
        # because its rhs is zero. That zero rhs also lets a row be
        # negated first, so that its pivot entry is positive.
        for r, b in enumerate(tab.basis):
            if b in artificials:
                for j in range(first_art):
                    if tab.rows[r][j]:
                        if tab.rows[r][j] < 0:
                            tab.rows[r] = [-a for a in tab.rows[r]]
                        tab.pivot(r, j)
                        break

    if tab.run(cost + [0] * (ncols - n), banned=artificials) == "unbounded":
        return LpResult("unbounded", None, None)

    solution = [_ZERO] * n
    for line, b in zip(tab.rows, tab.basis):
        if b < n:
            solution[b] = Fraction(line[-1], tab.d)
    value = Fraction(-tab.rows[-1][-1], cost_scale * tab.d)
    return LpResult("optimal", value if maximize else -value, tuple(solution))
