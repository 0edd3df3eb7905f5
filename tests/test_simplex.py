"""Exact simplex solver, cross-checked against brute-force vertex
enumeration and against the Fraction-arithmetic simplex it replaced."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import gnprob.coherence
import gnprob.simplex
from gnprob import (
    Assessment,
    ValidationError,
    check,
    check_avoiding_sure_loss,
    random_credal,
    random_layered,
)
from gnprob.simplex import solve_lp
from conftest import make_universe, random_conditional_gamble
from oracles import grid_search
import simplex_oracle
from simplex_oracle import oracle_solve_lp


def record_pivots(monkeypatch, tableau):
    """Log the (row, entering variable, entry) of every pivot of the
    tableau class. The kernel's condensed tableau labels its columns in
    ``cols``; a column of the oracle's full tableau is its own variable.
    After every kernel pivot each row has one entry per nonbasic variable
    plus the rhs, no variable is both basic and nonbasic, and the common
    denominator is positive."""
    log = []
    pivot = tableau.pivot
    condensed = tableau is gnprob.simplex._Tableau

    def recording_pivot(tab, row, col):
        log.append((row, tab.cols[col] if condensed else col, tab.rows[row][col]))
        pivot(tab, row, col)
        if condensed:
            assert all(len(line) == len(tab.cols) + 1 for line in tab.rows)
            assert not set(tab.cols) & set(tab.basis)
            assert tab.d > 0

    monkeypatch.setattr(tableau, "pivot", recording_pivot)
    return log


def steps(log):
    """The (row, entering variable) of each logged pivot."""
    return [(row, variable) for row, variable, _ in log]


class TestHandInstances:
    def test_simple_maximum(self):
        # max x + y with x + 2y <= 4, 3x + y <= 6
        result = solve_lp([1, 1], [([1, 2], "<=", 4), ([3, 1], "<=", 6)])
        assert result.status == "optimal"
        assert result.objective == Fraction(14, 5)
        assert result.solution == (Fraction(8, 5), Fraction(6, 5))

    def test_minimize(self):
        # min x + 2y is minus the max of -x - 2y
        result = solve_lp([-1, -2], [([1, 1], ">=", 2)])
        assert result.status == "optimal"
        assert result.objective == -2
        assert result.solution == (Fraction(2), Fraction(0))

    def test_equality_constraint(self):
        result = solve_lp([1, 0], [([1, 1], "==", 1)])
        assert result.status == "optimal"
        assert result.objective == 1
        assert result.solution == (Fraction(1), Fraction(0))

    def test_unbounded(self):
        assert solve_lp([1], [([-1], "<=", 1)]).status == "unbounded"

    def test_infeasible(self):
        result = solve_lp([1], [([1], "<=", 1), ([1], ">=", 2)])
        assert result.status == "infeasible"

    def test_negative_rhs_normalization(self):
        # x >= 1 expressed as -x <= -1
        result = solve_lp([-1], [([-1], "<=", -1)])
        assert result.status == "optimal"
        assert result.objective == -1

    def test_degenerate_cycling_guard(self):
        # Classic degenerate instance; Bland's rule must terminate.
        result = solve_lp(
            [Fraction(3, 4), -150, Fraction(1, 50), -6],
            [
                ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
                ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
                ([0, 0, 1, 0], "<=", 1),
            ],
        )
        assert result.status == "optimal"
        assert result.objective == Fraction(1, 20)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            solve_lp([1, 2], [([1], "<=", 1)])
        with pytest.raises(ValidationError):
            solve_lp([1], [([1], "<", 1)])

    def test_numbers_coerced_like_as_fraction(self):
        with pytest.raises(ValidationError, match="floats are not exact"):
            solve_lp([0.1], [([1], "<=", 1)])
        with pytest.raises(ValidationError, match="floats are not exact"):
            solve_lp([1], [([0.5], "<=", 1)])
        with pytest.raises(ValidationError, match="floats are not exact"):
            solve_lp([1], [([1], "<=", 1.0)])
        with pytest.raises(ValidationError, match="not a rational"):
            solve_lp([1], [([1], "<=", "one")])
        result = solve_lp(["1/2"], [(["1/3"], "<=", "1/4")])
        assert result.objective == Fraction(3, 8)
        assert result.solution == (Fraction(3, 4),)

    def test_literal_policy_covers_bools_and_long_strings(self):
        with pytest.raises(ValidationError, match="^true is not a rational literal$"):
            solve_lp([True], [([1], "<=", 1)])
        with pytest.raises(ValidationError, match="^true is not a rational literal$"):
            solve_lp([1], [([1], "<=", True)])
        with pytest.raises(ValidationError, match="^true is not a rational literal$"):
            solve_lp([1, 1], [([1, True], "<=", 1)])
        with pytest.raises(ValidationError, match="^false is not a rational literal$"):
            solve_lp([1], [([False], "<=", 1)])
        with pytest.raises(ValidationError, match="^rational literal with more than 1000 digits"):
            solve_lp([1], [([1], "<=", "1e-3000000")])
        with pytest.raises(ValidationError, match="^rational literal with more than 1000 digits"):
            solve_lp(["1/" + "3" * 1001], [([1], "<=", 1)])


class TestPinnedPivots:
    """LPs where the integer kernel's bookkeeping decides the answer."""

    def test_phase_one_weights_follow_row_scaling(self):
        # Rows are scaled by the lcm of their denominators, and so are
        # their artificials. With unit phase-1 weights on the scaled
        # artificials, phase 1 ends at another basis, and phase 2 returns
        # the equally optimal vertex (27/7, 9/7, 5/2).
        box = [([1 if j == i else 0 for j in range(3)], "<=", 10) for i in range(3)]
        constraints = [
            ([Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)], ">=", Fraction(-2, 3)),
            ([0, 0, Fraction(2, 5)], "==", 1),
            ([Fraction(-2, 3), Fraction(-1, 3), 1], ">=", Fraction(-1, 2)),
            ([2, Fraction(1, 2), 1], ">=", Fraction(3, 4)),
            ([0, Fraction(-1, 3), Fraction(-3, 7)], "==", Fraction(-3, 2)),
        ] + box
        result = solve_lp([0, Fraction(1, 2), -3], constraints)
        assert result.status == "optimal"
        assert result.objective == Fraction(-48, 7)
        assert result.solution == (Fraction(0), Fraction(9, 7), Fraction(5, 2))

    def test_redundant_equality_pivots_out_on_negative_entry(self, monkeypatch):
        # The second row is the first one times 3 (as a >= row). Phase 1
        # leaves its artificial basic at zero, and pivoting it out uses the
        # surplus column, whose entry is negative there. The Fraction
        # oracle pivots on that negative entry; the kernel negates the
        # row first (its rhs is 0), so it pivots on a positive entry for
        # the same entering variable and the common denominator stays
        # positive.
        oracle = record_pivots(monkeypatch, simplex_oracle._Tableau)
        kernel = record_pivots(monkeypatch, gnprob.simplex._Tableau)
        constraints = [
            ([Fraction(1, 2), Fraction(1, 3)], "==", Fraction(1, 6)),
            ([Fraction(3, 2), 1], ">=", Fraction(1, 2)),
        ]
        result = solve_lp([0, 1], constraints)
        assert result == oracle_solve_lp([0, 1], constraints)
        assert all(p > 0 for _, _, p in kernel)
        assert steps(kernel) == steps(oracle)
        assert any(p < 0 for _, _, p in oracle)
        assert result.objective == Fraction(1, 2)
        assert result.solution == (Fraction(0), Fraction(1, 2))


def brute_force_max(objective, constraints, nvars):
    """Optimum by enumerating candidate vertices: solutions of every
    square subsystem of tight constraints, kept if feasible."""
    rows = []
    for coeffs, rel, rhs in constraints:
        if rel in ("<=", "=="):
            rows.append(([Fraction(v) for v in coeffs], Fraction(rhs)))
        if rel in (">=", "=="):
            rows.append(([-Fraction(v) for v in coeffs], -Fraction(rhs)))
    for i in range(nvars):
        unit = [Fraction(0)] * nvars
        unit[i] = Fraction(-1)
        rows.append((unit, Fraction(0)))

    def solve_square(subset):
        a = [list(rows[i][0]) for i in subset]
        b = [rows[i][1] for i in subset]
        n = len(subset)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                return None
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
            inv = a[col][col]
            a[col] = [v / inv for v in a[col]]
            b[col] /= inv
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    b[r] -= f * b[col]
        return b

    best = None
    for subset in itertools.combinations(range(len(rows)), nvars):
        point = solve_square(subset)
        if point is None:
            continue
        if all(
            sum(c * x for c, x in zip(coeffs, point)) <= rhs for coeffs, rhs in rows
        ):
            value = sum(c * x for c, x in zip(objective, point))
            if best is None or value > best:
                best = value
    return best


class TestAgainstVertexEnumeration:
    def test_random_bounded_lps(self):
        rng = random.Random(123)
        checked = 0
        for _ in range(120):
            nvars = rng.randint(1, 4)
            ncons = rng.randint(1, 5)
            objective = [Fraction(rng.randint(-4, 4)) for _ in range(nvars)]
            constraints = [
                (
                    [Fraction(rng.randint(-3, 3)) for _ in range(nvars)],
                    rng.choice(["<=", ">=", "=="]),
                    Fraction(rng.randint(-4, 6)),
                )
                for _ in range(ncons)
            ]
            # box to keep the polytope bounded so vertices capture the optimum
            for i in range(nvars):
                unit = [Fraction(0)] * nvars
                unit[i] = Fraction(1)
                constraints.append((unit, "<=", Fraction(10)))
            result = solve_lp(objective, constraints)
            expected = brute_force_max(objective, constraints, nvars)
            if expected is None:
                assert result.status == "infeasible"
            else:
                assert result.status == "optimal"
                assert result.objective == expected
                # returned point must be feasible
                for coeffs, rel, rhs in constraints:
                    lhs = sum(c * x for c, x in zip(coeffs, result.solution))
                    if rel == "<=":
                        assert lhs <= Fraction(rhs)
                    elif rel == ">=":
                        assert lhs >= Fraction(rhs)
                    else:
                        assert lhs == Fraction(rhs)
                assert all(x >= 0 for x in result.solution)
                checked += 1
        assert checked > 40


def random_fractional_lp(rng):
    """Fractional coefficients, rhs of either sign, all three relations;
    a box on every variable for most of them, so every status occurs."""
    nvars = rng.randint(1, 5)

    def q():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 7))

    objective = [q() for _ in range(nvars)]
    constraints = [
        ([q() for _ in range(nvars)], rng.choice(["<=", ">=", "=="]), q())
        for _ in range(rng.randint(1, 6))
    ]
    if rng.random() < 0.7:
        for i in range(nvars):
            constraints.append(([1 if j == i else 0 for j in range(nvars)], "<=", 10))
    return objective, constraints, rng.random() < 0.5


class TestAgainstFractionOracle:
    """The integer kernel takes the same Bland's-rule pivots as the
    Fraction simplex, so whole results agree: status, objective and the
    optimal vertex itself, not only the optimum."""

    def test_random_lps(self, monkeypatch):
        kernel = record_pivots(monkeypatch, gnprob.simplex._Tableau)
        oracle = record_pivots(monkeypatch, simplex_oracle._Tableau)
        rng = random.Random(2024)
        statuses = {}
        pivots = 0
        for _ in range(1500):
            objective, constraints, maximize = random_fractional_lp(rng)
            kernel.clear()
            oracle.clear()
            # a minimum is the negated maximum of the negated objective
            sign = 1 if maximize else -1
            result = solve_lp([sign * v for v in objective], constraints)
            expected = oracle_solve_lp(objective, constraints, maximize=maximize)
            if expected.status == "optimal":
                expected = replace(expected, objective=sign * expected.objective)
            assert result == expected, (objective, constraints, maximize)
            assert steps(kernel) == steps(oracle), (objective, constraints, maximize)
            assert all(p > 0 for _, _, p in kernel)
            pivots += len(kernel)
            statuses[result.status] = statuses.get(result.status, 0) + 1
        assert set(statuses) == {"optimal", "unbounded", "infeasible"}
        assert min(statuses.values()) > 50
        assert pivots > 2000

    def test_coherence_lps(self, monkeypatch):
        kernel = record_pivots(monkeypatch, gnprob.simplex._Tableau)
        oracle = record_pivots(monkeypatch, simplex_oracle._Tableau)
        solved = []
        pivots = 0

        def compared(objective, constraints):
            nonlocal pivots
            kernel.clear()
            oracle.clear()
            result = solve_lp(objective, constraints)
            assert result == oracle_solve_lp(objective, constraints)
            assert steps(kernel) == steps(oracle)
            assert all(p > 0 for _, _, p in kernel)
            pivots += len(kernel)
            solved.append(result.objective > 0)
            return result

        monkeypatch.setattr(gnprob.coherence, "solve_lp", compared)
        rng = random.Random(77)
        for seed in range(16):
            u = make_universe(rng.randint(2, 5))
            gambles = [random_conditional_gamble(rng, u) for _ in range(rng.randint(2, 3))]
            gambles = list(dict.fromkeys(gambles))
            precise = random_layered(seed, u)
            lower = random_credal(seed, u, 2)
            shift = Fraction(rng.randint(-2, 2), rng.randint(2, 9))
            for value in (precise.value, lambda g: precise.value(g) + shift):
                entries = tuple((g, value(g)) for g in gambles)
                check(Assessment(entries, kind="precise"), "dF")
            for value in (lower.lower, lambda g: lower.lower(g) + shift):
                entries = tuple((g, value(g)) for g in gambles)
                assessment = Assessment(entries, kind="lower")
                check(assessment, "W")
                check(assessment, "convex")
                check_avoiding_sure_loss(assessment)
                # the grid oracle's cell LPs go through the same solve_lp
                grid_search(assessment, "convex")
        assert len(solved) > 1000
        assert any(solved) and not all(solved)
        assert pivots > len(solved)
