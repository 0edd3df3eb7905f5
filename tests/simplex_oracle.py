"""The Fraction-arithmetic simplex that the integer kernel of
``gnprob.simplex`` replaced, kept as a test oracle.

Every pivot is carried out in Fraction arithmetic. Given the same LP it
takes the same Bland's-rule pivots as ``gnprob.simplex.solve_lp``, so the
two must return equal ``LpResult`` values, status, objective and
solution alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from gnprob.errors import ValidationError
from gnprob.simplex import Constraint, LpResult

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Tableau:
    def __init__(self, rows, basis, ncols):
        self.rows = rows            # list of lists, last entry is the rhs
        self.basis = basis          # basic variable of each row
        self.ncols = ncols          # number of variable columns

    def pivot(self, row: int, col: int) -> None:
        piv = self.rows[row][col]
        self.rows[row] = [v / piv for v in self.rows[row]]
        for r in range(len(self.rows)):
            if r != row and self.rows[r][col] != 0:
                factor = self.rows[r][col]
                self.rows[r] = [
                    a - factor * b for a, b in zip(self.rows[r], self.rows[row])
                ]
        self.basis[row] = col

    def run(self, cost: list[Fraction], banned: set[int]) -> str:
        """Maximize cost'x from the current basis. Returns "optimal" or
        "unbounded". ``cost`` has one entry per column and is first
        reduced against the current basis."""
        # Reduced cost row: z[j] = cost[j] - cost_B . column_j
        z = list(cost) + [_ZERO]
        for r, b in enumerate(self.basis):
            cb = cost[b]
            if cb != 0:
                z = [a - cb * v for a, v in zip(z, self.rows[r])]
        while True:
            enter = -1
            for j in range(self.ncols):
                if j not in banned and z[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best: Optional[Fraction] = None
            for r in range(len(self.rows)):
                a = self.rows[r][enter]
                if a > 0:
                    ratio = self.rows[r][-1] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[r] < self.basis[leave])
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)
            factor = z[enter]
            if factor != 0:
                z = [a - factor * b for a, b in zip(z, self.rows[leave])]


def oracle_solve_lp(
    objective: Sequence, constraints: Sequence[Constraint], *, maximize: bool = True
) -> LpResult:
    """Solve max (or min) objective'x subject to the constraints, x >= 0."""
    cost = [Fraction(v) for v in objective]
    if not maximize:
        cost = [-v for v in cost]
    n = len(cost)

    rows = []
    rels = []
    rhs = []
    for coeffs, rel, b in constraints:
        line = [Fraction(v) for v in coeffs]
        if len(line) != n:
            raise ValidationError(f"constraint width {len(line)} != {n} variables")
        if rel not in ("<=", ">=", "=="):
            raise ValidationError(f"unknown relation {rel!r}")
        b = Fraction(b)
        if b < 0:
            line = [-v for v in line]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        rows.append(line)
        rels.append(rel)
        rhs.append(b)
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
        line = [_ZERO] * (ncols + 1)
        for j, v in enumerate(rows[i]):
            line[j] = v
        line[-1] = rhs[i]
        if rels[i] == "<=":
            line[slack_col[i]] = _ONE
            basis.append(slack_col[i])
        elif rels[i] == ">=":
            line[slack_col[i]] = -_ONE
            line[art_col[i]] = _ONE
            basis.append(art_col[i])
        else:
            line[art_col[i]] = _ONE
            basis.append(art_col[i])
        table.append(line)

    tab = _Tableau(table, basis, ncols)
    artificials = set(art_col.values())

    if artificials:
        phase1 = [_ZERO] * ncols
        for j in artificials:
            phase1[j] = -_ONE
        status = tab.run(phase1, banned=set())
        assert status == "optimal", "phase 1 is always bounded"
        infeasibility = sum(
            (tab.rows[r][-1] for r in range(m) if tab.basis[r] in artificials),
            _ZERO,
        )
        if infeasibility > 0:
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

    status = tab.run(cost + [_ZERO] * (ncols - n), banned=artificials)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    solution = [_ZERO] * n
    for r, b in enumerate(tab.basis):
        if b < n:
            solution[b] = tab.rows[r][-1]
    value = sum((c * x for c, x in zip(cost, solution)), _ZERO)
    if not maximize:
        value = -value
    return LpResult("optimal", value, tuple(solution))
