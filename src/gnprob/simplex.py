"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's rule, meant for the tiny
feasibility programs produced by the coherence checker (tens of
variables and rows). Bland's rule (lowest eligible label for both the
entering and the leaving variable) rules out cycling.

The tableau is condensed, in the dictionary form of Chvatal (Linear
Programming, 1983): it stores one column per nonbasic variable, plus the
rhs, and no unit column of a basic variable. The slack of a "<=" row
starts basic, so an LP of n variables and only "<=" rows has a tableau
n + 1 wide, whatever its number of rows. A variable's label is its
place in the order structural, slack and surplus, artificial, and a
pivot swaps the labels of the entering and the leaving variable.

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
    """The condensed (dictionary) tableau: one column per nonbasic
    variable, labelled in ``cols``, plus the rhs; the basic variables are
    labelled in ``basis``, one per constraint row, and their unit columns
    are not stored. Row r < len(basis) holds D times row r of the
    normalized (Fraction) tableau at the nonbasic columns, so the basic
    variable of row r has the value rows[r][-1] / D. The last row is the
    objective row: D times the reduced costs of the nonbasic variables,
    with -D times the objective value in its last entry. Every pivot is on
    a positive entry, so D stays positive."""

    def __init__(self, rows, basis, cols):
        self.rows = rows + [[0] * (len(cols) + 1)]  # int lists, last entry is the rhs
        self.basis = basis          # basic variable of each constraint row
        self.cols = cols            # nonbasic variable of each column
        self.d = 1                  # common denominator, kept positive

    def pivot(self, row: int, k: int) -> None:
        """Swap basis[row] and cols[k]. Row ``row`` is kept; column k turns
        into the leaving variable's, D in row ``row`` and minus the old
        column k elsewhere, and the new D is the pivot entry."""
        rows = self.rows
        prow = rows[row]
        p = prow[k]
        d = self.d
        for r, line in enumerate(rows):
            if r != row:
                factor = line[k]
                if factor:
                    line = [(a * p - factor * b) // d for a, b in zip(line, prow)]
                    line[k] = -factor
                    rows[r] = line
                elif p != d:
                    rows[r] = [a * p // d for a in line]
        prow[k] = d
        self.d = p
        self.basis[row], self.cols[k] = self.cols[k], self.basis[row]

    def run(self, cost: list[int], banned: Sequence[int]) -> str:
        """Maximize cost'x from the current basis. Returns "optimal" or
        "unbounded". ``cost`` has one integer entry per variable and is
        first reduced against the current basis into the objective row.
        Bland's rule: the eligible nonbasic variable of smallest label
        enters, and ties in the ratio test go to the smallest basic label."""
        rows = self.rows
        cols = self.cols
        z = [self.d * cost[c] for c in cols] + [0]
        for line, b in zip(rows, self.basis):
            cb = cost[b]
            if cb:
                z = [a - cb * v for a, v in zip(z, line)]
        rows[-1] = z
        while True:
            z = rows[-1]
            enter = -1
            for k, c in enumerate(cols):
                if z[k] > 0 and c not in banned and (enter < 0 or c < cols[enter]):
                    enter = k
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

    # Variable labels: structural | slack/surplus | artificial. The slack
    # of a "<=" row starts basic, so only the structural and the surplus
    # variables start with a column.
    art = first_art = n + sum(rel != "==" for _, rel, _ in rows)
    nvars = first_art + sum(rel != "<=" for _, rel, _ in rows)
    width = n + sum(rel == ">=" for _, rel, _ in rows)
    # Row i was scaled by the lcm s_i of its denominators, which scales
    # its artificial by s_i too; the phase-1 cost -1 of the unscaled
    # artificial becomes -1/s_i, here times the positive lcm of the s_i.
    top = lcm(*(scale for _, rel, scale in rows if rel != "<="))
    phase1 = [0] * nvars
    table, basis, cols = [], [], list(range(n))
    slack = n
    for row, rel, scale in rows:
        line = row[:n] + [0] * (width - n) + row[n:]
        if rel == ">=":
            line[len(cols)] = -1
            cols.append(slack)
        if rel == "<=":
            basis.append(slack)
        else:
            phase1[art] = -(top // scale)
            basis.append(art)
            art += 1
        slack += rel != "=="
        table.append(line)

    tab = _Tableau(table, basis, cols)
    artificials = range(first_art, nvars)

    if artificials:
        if tab.run(phase1, banned=()) != "optimal":
            raise AssertionError("phase 1 is always bounded")
        if any(line[-1] > 0 for line, b in zip(tab.rows, tab.basis) if b in artificials):
            return LpResult("infeasible", None, None)
        # Pivot leftover artificials out of the basis where possible, on
        # the nonbasic variable of smallest label below the artificials;
        # a row with no eligible pivot is redundant and can be ignored
        # because its rhs is zero. That zero rhs also lets a row be
        # negated first, so that its pivot entry is positive; the
        # artificial then leaves with a negated column, which phase 2,
        # banning every artificial, never reads.
        for r, b in enumerate(tab.basis):
            if b in artificials:
                line = tab.rows[r]
                eligible = [(c, k) for k, c in enumerate(tab.cols) if c < first_art and line[k]]
                if eligible:
                    k = min(eligible)[1]
                    if line[k] < 0:
                        tab.rows[r] = [-a for a in line]
                    tab.pivot(r, k)

    if tab.run(cost + [0] * (nvars - n), banned=artificials) == "unbounded":
        return LpResult("unbounded", None, None)

    solution = [_ZERO] * n
    for line, b in zip(tab.rows, tab.basis):
        if b < n:
            solution[b] = Fraction(line[-1], tab.d)
    value = Fraction(-tab.rows[-1][-1], cost_scale * tab.d)
    return LpResult("optimal", value if maximize else -value, tuple(solution))
