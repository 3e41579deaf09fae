"""Bounded-system solvability via Gaussian elimination on the strong dual.

The route: homogenize the input to its primal cone (unless it already is
one), cap it with a first row sum(x) <= 2, and take the sigma-substituted
strong elementary dual of the capped cone with the all-ones objective.  That
dual is a pure multiplier system whose first variable l1 belongs to the cap
row and whose extension row is -2*l1 >= -2.  Every other l variable is then
substituted out through some eligible row set to equality (its sign row
becoming a main row), leaving a one-variable system in l1.  The verdict read
off the terminal interval is Solvable exactly when the interval is the single
point {1}.

Pivot choice is not canonical: different admissible sequences can end in
different terminal intervals and even different verdicts.  The rule object
makes the choice explicit and reproducible, and `explore` enumerates the
whole pivot tree to quantify the sensitivity.  `run` works on Fraction
systems, because its steps are printed and replayed; `explore` only needs
the verdicts, so it walks the tree on coprime integer rows, substitutes
without fractions (as in Bareiss 1968), and merges states that differ only
by positive row scaling.  Whether the verdict agrees with direct
elimination on the input is measured, never assumed; see the harness
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import (
    Constraint,
    InvariantError,
    LincertError,
    LinearExpr,
    Provenance,
    Relation,
    System,
    ZERO,
    rat,
    validate_standard_shape,
)
from .cone import NonHomogeneousError, is_bounded, primal_cone
from .dual import strong_elementary_dual
from .fourier import normalized_key
from .gauss import substitute_through


class UnboundedInputError(LincertError):
    pass


class PivotRuleError(LincertError):
    pass


class ExploreBudgetExceeded(LincertError):
    pass


@dataclass(frozen=True)
class PivotRule:
    kind: str  # "main-first" | "paper-seq" | "explicit-order"
    sequence: tuple[tuple[str, str], ...] = ()  # (lambda name, row label) pairs
    order: tuple[str, ...] = ()


MAIN_ROWS_FIRST = PivotRule("main-first")


def pivot_sequence(pairs) -> PivotRule:
    return PivotRule("paper-seq", sequence=tuple((str(a), str(b)) for a, b in pairs))


def explicit_order(names) -> PivotRule:
    return PivotRule("explicit-order", order=tuple(names))


@dataclass(frozen=True)
class Interval:
    empty: bool = False
    lo: Fraction | None = None
    lo_open: bool = False
    hi: Fraction | None = None
    hi_open: bool = False

    def is_point(self, value) -> bool:
        value = rat(value)
        return (
            not self.empty
            and self.lo == value
            and self.hi == value
            and not self.lo_open
            and not self.hi_open
        )

    def describe(self) -> str:
        if self.empty:
            return "empty"
        left = "(" if self.lo_open or self.lo is None else "["
        right = ")" if self.hi_open or self.hi is None else "]"
        lo = str(self.lo) if self.lo is not None else "-inf"
        hi = str(self.hi) if self.hi is not None else "+inf"
        return f"{left}{lo}, {hi}{right}"


def terminal_interval(system: System, var: int) -> Interval:
    """Exact feasible interval of a one-variable system."""
    rows = []
    for c in system.constraints:
        extra = [v for v, _ in c.expr.terms if v != var]
        if extra:
            names = ", ".join(system.variables[v] for v in extra)
            raise LincertError(f"terminal system still mentions {names}")
        if c.relation is Relation.EQ:
            raise LincertError(f"terminal system contains an equality row {c.cid}")
        rows.append((c.expr.coeff(var), c.rhs, c.relation is Relation.LT))
    return _interval(rows)


def _interval(rows) -> Interval:
    """The solution set of rows a*l <= rhs (a*l < rhs when strict) given as
    (a, rhs, strict) triples of ints or Fractions."""
    lo = hi = None
    lo_open = hi_open = False
    empty = False
    for a, rhs, strict in rows:
        if a == 0:
            if rhs < 0 or (strict and rhs == 0):
                empty = True
            continue
        bound = Fraction(rhs, a)
        if a > 0:
            if hi is None or bound < hi or (bound == hi and strict):
                hi, hi_open = bound, strict
        else:
            if lo is None or bound > lo or (bound == lo and strict):
                lo, lo_open = bound, strict
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            empty = True
    if empty:
        return Interval(empty=True)
    return Interval(False, lo, lo_open, hi, hi_open)


@dataclass(frozen=True)
class WorkingSystem:
    primal: System
    cone: System
    augmented: System
    system: System  # the multiplier system the elimination loop works on
    labels: tuple[tuple[int, str], ...]
    extension_id: int
    lambda_one: int
    sigma: Fraction

    def label_of(self, cid: int) -> str:
        return dict(self.labels)[cid]


@dataclass(frozen=True)
class PipelineStep:
    var: int
    var_name: str
    pivot_id: int | None
    pivot_label: str | None
    kind: str  # "original-main" | "converted-sign" | "fallback-zero"
    system: System


@dataclass(frozen=True)
class PipelineTrace:
    working: WorkingSystem
    steps: tuple[PipelineStep, ...]
    terminal: System
    interval: Interval
    verdict: str  # "solvable" | "unsolvable"

    @property
    def solvable(self) -> bool:
        return self.verdict == "solvable"


def build_working_system(primal: System, sigma=2) -> WorkingSystem:
    """Cap the (primal) cone with sum(x) <= sigma and dualize.

    A system flagged as a cone must already be homogeneous standard shape and
    is used as-is; anything else must be bounded standard shape and is
    homogenized first.  The cap row goes in first so its multiplier is l1.
    """
    sigma = rat(sigma)
    if primal.is_cone:
        validate_standard_shape(primal)
        for c in primal.constraints:
            if c.rhs != 0:
                raise NonHomogeneousError(
                    f"system is flagged as a cone but row {c.cid} has right side {c.rhs}"
                )
        cone = primal
    else:
        cone = primal_cone(primal).system  # validates the input's shape
        if not is_bounded(primal):
            raise UnboundedInputError(
                "input has a solution at infinity; the verdict rule needs a bounded system"
            )

    mains = cone.main_rows()
    nvars = len(cone.variables)
    rows = [
        Constraint(
            0,
            LinearExpr.from_terms({v: 1 for v in range(nvars)}),
            Relation.LE,
            sigma,
            Provenance.main(),
        )
    ]
    for i, row in enumerate(mains):
        rows.append(Constraint(1 + i, row.expr, Relation.LE, row.rhs, Provenance.main()))
    cid = 1 + len(mains)
    for v in range(nvars):
        rows.append(Constraint(cid, LinearExpr.from_terms({v: -1}), Relation.LE, ZERO, Provenance.sign()))
        cid += 1
    augmented = System(cone.variables, tuple(rows))

    ones = LinearExpr.from_terms({v: 1 for v in range(nvars)})
    sd = strong_elementary_dual(augmented, ones, sigma=sigma)
    labels = []
    for row_cid, var in sd.row_origin:
        labels.append((row_cid, f"row-{cone.variables[var]}"))
    labels.append((sd.extension_id, "extension"))
    for lam, _ in sd.lambda_origin:
        labels.append((sd.sign_id(lam), f"sign-l{lam + 1}"))
    return WorkingSystem(
        primal=primal,
        cone=cone,
        augmented=augmented,
        system=sd.system,
        labels=tuple(labels),
        extension_id=sd.extension_id,
        lambda_one=0,
        sigma=sigma,
    )


def _eligible_pivots(system: System, var: int):
    out = []
    for c in system.constraints:
        if c.provenance.kind in ("sign", "extension"):
            continue
        if c.expr.coeff(var) != 0:
            out.append(c)
    return out


def _pivot_kind(label: str) -> str:
    return "original-main" if label.startswith("row-") else "converted-sign"


def _fallback_zero(system: System, var: int) -> System:
    sign_row = system.sign_row_for(var)
    rows = [c for c in system.constraints if sign_row is None or c.cid != sign_row.cid]
    for c in rows:
        if c.expr.coeff(var) != 0:
            raise InvariantError("fallback hit a row that still mentions the variable")
    return system.with_rows(rows)


def _apply_step(system: System, labels: dict[int, str], var: int, pivot: Constraint | None):
    var_name = system.variables[var]
    if pivot is None:
        new_system = _fallback_zero(system, var)
        step = PipelineStep(var, var_name, None, None, "fallback-zero", new_system)
        return new_system, labels, step
    new_system = substitute_through(system, var, pivot.cid)
    new_labels = {cid: lab for cid, lab in labels.items() if cid != pivot.cid}
    label = labels[pivot.cid]
    step = PipelineStep(var, var_name, pivot.cid, label, _pivot_kind(label), new_system)
    return new_system, new_labels, step


def _choose_main_first(system: System, labels: dict[int, str], var: int) -> Constraint | None:
    candidates = _eligible_pivots(system, var)
    if not candidates:
        return None
    originals = [c for c in candidates if labels[c.cid].startswith("row-")]
    pool = originals if originals else candidates
    return min(pool, key=lambda c: c.cid)


def _plan(rule: PivotRule, variables: tuple[str, ...], remaining: list[int]):
    """The rule as (variable index, row label or None) moves; None lets
    `_choose_main_first` pick the pivot."""
    if rule.kind == "main-first":
        return [(var, None) for var in remaining]
    if rule.kind == "paper-seq":
        named, what = rule.sequence, "pivot sequence"
    elif rule.kind == "explicit-order":
        named, what = [(lname, None) for lname in rule.order], "explicit order"
    else:
        raise PivotRuleError(f"unknown pivot rule kind {rule.kind!r}")
    plan = []
    for lname, row_label in named:
        if lname not in variables:
            raise PivotRuleError(f"no multiplier variable named {lname!r}")
        plan.append((variables.index(lname), row_label))
    if sorted(var for var, _ in plan) != remaining:
        raise PivotRuleError(f"{what} must eliminate every multiplier except l1 exactly once")
    return plan


def _labeled_pivot(system: System, labels: dict[int, str], var: int, row_label: str) -> Constraint:
    by_label = {labels[c.cid]: c for c in system.constraints}
    if row_label not in by_label:
        raise PivotRuleError(f"no row labeled {row_label!r} at this step")
    pivot = by_label[row_label]
    if pivot.provenance.kind in ("sign", "extension"):
        raise PivotRuleError(f"row {row_label!r} is not an admissible pivot")
    if pivot.expr.coeff(var) == 0:
        raise PivotRuleError(f"row {row_label!r} does not mention {system.variables[var]}")
    return pivot


def run(primal: System, rule: PivotRule = MAIN_ROWS_FIRST, sigma=2) -> PipelineTrace:
    """Run the elimination loop to a one-variable verdict on l1."""
    ws = build_working_system(primal, sigma=sigma)
    system = ws.system
    labels = dict(ws.labels)
    remaining = [v for v in range(len(system.variables)) if v != ws.lambda_one]
    steps: list[PipelineStep] = []
    for var, row_label in _plan(rule, system.variables, remaining):
        if row_label is None:
            pivot = _choose_main_first(system, labels, var)
        else:
            pivot = _labeled_pivot(system, labels, var, row_label)
        system, labels, step = _apply_step(system, labels, var, pivot)
        steps.append(step)
    interval = terminal_interval(system, ws.lambda_one)
    verdict = "solvable" if interval.is_point(1) else "unsolvable"
    return PipelineTrace(ws, tuple(steps), system, interval, verdict)


@dataclass(frozen=True)
class ExploreOutcome:
    interval: Interval
    verdict: str
    sequence: tuple[tuple[str, str], ...]  # (lambda name, row label or "zero") witness


@dataclass(frozen=True)
class ExploreResult:
    outcomes: tuple[ExploreOutcome, ...]
    sequence_count: int
    pivot_sensitive: bool
    states: int


def explore(primal: System, state_budget: int = 4000, sigma=2) -> ExploreResult:
    """Walk every admissible pivot sequence (all lambda orders, all eligible
    rows; the zero fallback only when no row is eligible).

    States reached by different paths are merged, so the walk is a DAG
    traversal; `state_budget` caps the number of distinct states and a
    LincertError subclass is raised beyond it.  The input is pivot-sensitive
    when two sequences end in different verdicts.

    The walk runs on integer rows (label, coefficients, rhs, strict,
    pivotable), each the coprime integer multiple of its working-system row,
    kept in constraint-id order.  Pivoting on row p (coefficient a0 on the
    variable) maps each other row with coefficient a != 0 to
    |a0|*row - a*sign(a0)*p, divided by its gcd.  That is |a|*|a0| times
    the row `substitute_through` emits, the promoted sign row -l <= 0
    included, so the walk meets the same states up to positive row scaling.
    Scaling changes nothing the walk reads: which rows mention a variable
    (eligibility), which rows are pivotable (sign and extension rows are
    not; every rewritten row is), the sign pattern the next move works
    from, and each terminal bound rhs/a.  States equal up to that scaling
    therefore have the same subtree, and because rows are kept coprime the
    key (remaining variables, rows) merges them with no normalising pass.
    The key carries labels, not constraint ids: the working system fixes a
    one-to-one map between the two, so an id adds nothing, and the rows'
    id order is the order candidates are tried in.  Fractions are built
    only for the terminal interval.
    """
    ws = build_working_system(primal, sigma=sigma)
    lambda_one = ws.lambda_one
    names = ws.system.variables
    labels = dict(ws.labels)
    memo: dict = {}
    states = 0

    start = []
    for c in sorted(ws.system.constraints, key=lambda c: c.cid):
        terms, relation, rhs = normalized_key(c)
        if relation is Relation.EQ:
            raise LincertError(f"working system contains an equality row {c.cid}")
        coeffs = [0] * len(names)
        for v, a in terms:
            coeffs[v] = a.numerator
        pivotable = c.provenance.kind not in ("sign", "extension")
        start.append((labels[c.cid], tuple(coeffs), rhs.numerator, relation is Relation.LT, pivotable))

    def visit(rows: tuple, remaining: frozenset[int]):
        nonlocal states
        key = (remaining, rows)
        found = memo.get(key)
        if found is not None:
            return found
        states += 1
        if states > state_budget:
            raise ExploreBudgetExceeded(f"pivot tree exceeds {state_budget} distinct states")
        if not remaining:
            interval = _interval((coeffs[lambda_one], rhs, strict) for _, coeffs, rhs, strict, _ in rows)
            verdict = "solvable" if interval.is_point(1) else "unsolvable"
            memo[key] = ({(interval, verdict): ()}, 1)
            return memo[key]
        outcomes: dict = {}
        count = 0
        for var in sorted(remaining):
            rest = remaining - {var}
            moves = [
                (row[0], _pivot_integer_rows(rows, i, var))
                for i, row in enumerate(rows)
                if row[4] and row[1][var]
            ]
            for label, new_rows in moves or [("zero", _drop_sign_row(rows, var))]:
                sub_outcomes, sub_count = visit(new_rows, rest)
                count += sub_count
                head = (names[var], label)
                for outcome_key, suffix in sub_outcomes.items():
                    outcomes.setdefault(outcome_key, (head,) + suffix)
        memo[key] = (outcomes, count)
        return memo[key]

    remaining = frozenset(v for v in range(len(names)) if v != lambda_one)
    outcomes, count = visit(tuple(start), remaining)
    ordered = sorted(
        (ExploreOutcome(interval, verdict, seq) for (interval, verdict), seq in outcomes.items()),
        key=lambda o: (o.verdict, o.interval.describe(), o.sequence),
    )
    verdicts = {o.verdict for o in ordered}
    return ExploreResult(tuple(ordered), count, len(verdicts) > 1, states)


def _pivot_integer_rows(rows: tuple, p: int, var: int) -> tuple:
    """Substitute `var` out through integer row p set to equality."""
    _, pivot, pivot_rhs, _, _ = rows[p]
    a0 = pivot[var]
    m0 = abs(a0)
    s0 = 1 if a0 > 0 else -1
    out = []
    for i, row in enumerate(rows):
        if i == p:
            continue
        label, coeffs, rhs, strict, _ = row
        a = coeffs[var]
        if not a:
            out.append(row)
            continue
        f = a * s0
        new = [m0 * x - f * y for x, y in zip(coeffs, pivot)]
        new_rhs = m0 * rhs - f * pivot_rhs
        g = gcd(*new, new_rhs)
        if g > 1:
            new = [x // g for x in new]
            new_rhs //= g
        out.append((label, tuple(new), new_rhs, strict, True))
    return tuple(out)


def _drop_sign_row(rows: tuple, var: int) -> tuple:
    """The zero fallback on integer rows: drop the sign row -var <= 0; no
    other row may mention var."""
    sign = tuple(-1 if v == var else 0 for v in range(len(rows[0][1])))
    out = []
    dropped = False
    for row in rows:
        if row[1][var]:
            if not dropped and not row[4] and row[1] == sign:
                dropped = True
                continue
            raise InvariantError("fallback hit a row that still mentions the variable")
        out.append(row)
    return tuple(out)
