"""Bounded-system solvability via Gaussian elimination on the strong dual.

The route: homogenize the input to its primal cone (unless it already is
one), cap it with a first row sum(x) <= 2, and take the strong elementary
dual of the capped cone with the all-ones objective and objective value 2.
That dual is a pure multiplier system whose first variable l1 belongs to the
cap row and whose extension row is -2*l1 >= -2.  The cap constant enters
only that row, which no pivot touches, so it is fixed.  Every other l
variable is then substituted out through some eligible row set to equality
(its sign row becoming a main row), leaving a one-variable system in l1.
Its interval is read off its rows by `core.interval_of`, the rule Fourier
back-substitution uses for each fiber, and the verdict is Solvable exactly
when the interval is the single point {1}.

The working system is built once per primal and kept in the primal's memo
(core.System), so `run` and `explore` on one system share it.  It holds
the dual's coprime integer rows, transposed straight from the capped
cone's rows, and the dual's row labels; the capped cone and the dual as
`Fraction` systems are built from the cone's rows the first time they are
read.

Pivot choice is not canonical: different admissible sequences can end in
different terminal intervals and even different verdicts.  The rule object
makes the choice explicit and reproducible: the default takes original main
rows first, a pivot sequence names every pivot.  `explore` enumerates the
whole pivot tree to quantify the sensitivity.  Both pivot on coprime
integer rows through `gauss.pivot_integer_rows`, without fractions (as in
Bareiss 1968).  `run` records only its moves.  Its trace replays them
once, on integer rows that each carry the scale turning them into their
`Fraction` rows, the first time a step, a text or the terminal system is
read.  The working, step and terminal texts are printed from those rows;
the `Fraction` systems, the strong dual first, are built only when one of
them is read.  `explore` only needs
the verdicts, and names each child before computing it by the remaining
variables and the set of pivot rows taken, which fix its rows, so it
pivots once per distinct pivot set.
Whether the verdict agrees with direct elimination on the input is
measured, never assumed; see the harness module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm

from .core import (
    Constraint,
    Interval,
    InvariantError,
    LincertError,
    LinearExpr,
    Provenance,
    Relation,
    System,
    integer_row,
    interval_of,
    sign_row,
    validate_standard_shape,
)
from .cone import NonHomogeneousError, is_bounded, primal_cone
from .dual import strong_elementary_dual
from .gauss import pivot_integer_rows, substitute_through
from .sysfile import format_row, print_lines


class UnboundedInputError(LincertError):
    pass


class PivotRuleError(LincertError):
    pass


class ExploreBudgetExceeded(LincertError):
    pass


@dataclass(frozen=True)
class PivotRule:
    kind: str  # "main-first" (the default rule) | "paper-seq" (every pivot named)
    sequence: tuple[tuple[str, str], ...] = ()  # (lambda name, row label) pairs


MAIN_ROWS_FIRST = PivotRule("main-first")


def pivot_sequence(pairs) -> PivotRule:
    return PivotRule("paper-seq", sequence=tuple((str(a), str(b)) for a, b in pairs))


_CAP = Fraction(2)  # sum(x) <= 2 caps the cone; the dual's objective value
LAMBDA_ONE = 0  # the cap row's multiplier l1, the one variable left at the end


@dataclass(frozen=True)
class WorkingSystem:
    """The multiplier system the elimination loop works on, as the coprime
    integer rows `run` and `explore` start from (`gauss.integer_rows`'
    form), with its variables and row labels.  `scales` holds one
    (num, den) per row, the factor num/den that turns the integer row into
    the `Fraction` row.  `augmented` (the capped cone) and `system` (its
    strong dual) are the same system as `Fraction` systems, built from the
    cone's variables and main rows the first time each is read.  Nothing
    here is the primal or its cone, so the primal's memo that keeps it
    makes no reference cycle."""

    rows: tuple
    scales: tuple[tuple[int, int], ...]
    variables: tuple[str, ...]
    labels: tuple[tuple[int, str], ...]
    extension_id: int
    cone_variables: tuple[str, ...]
    cone_rows: tuple[Constraint, ...]  # the cone's main rows

    @cached_property
    def augmented(self) -> System:
        """The capped cone: sum(x) <= 2 first, so its multiplier is l1,
        then the cone's main rows and a sign row per variable."""
        nvars = len(self.cone_variables)
        ones = LinearExpr.from_terms({v: 1 for v in range(nvars)})
        rows = [Constraint(0, ones, Relation.LE, _CAP, Provenance.main())]
        for i, row in enumerate(self.cone_rows):
            rows.append(Constraint(1 + i, row.expr, Relation.LE, row.rhs, Provenance.main()))
        cid = 1 + len(self.cone_rows)
        for v in range(nvars):
            rows.append(sign_row(cid + v, v))
        return System(self.cone_variables, tuple(rows))

    @cached_property
    def system(self) -> System:
        """The strong elementary dual of the capped cone, with the cap row's
        left side sum(x) as objective and value 2."""
        augmented = self.augmented
        return strong_elementary_dual(augmented, augmented.constraints[0].expr, sigma=_CAP).system


@dataclass(frozen=True)
class PipelineStep:
    """One move of `run`.  `text` (the system after the move, printed as
    `print_system(..., orientation="ge")` prints it) and `system` (that
    `Fraction` system) are read from the trace's replay.  Equality and the
    hash compare the move alone (variable, pivot and kind), not the
    system after it: steps of two traces that make the same move compare
    equal whatever their systems."""

    var: int
    var_name: str
    pivot_id: int | None
    pivot_label: str | None
    kind: str  # "original-main" | "converted-sign" | "fallback-zero"
    replay: "_Replay" = field(repr=False, compare=False)
    state: int = field(repr=False, compare=False)  # the replay's state after the move

    @property
    def text(self) -> str:
        return self.replay.text(self.state)

    @property
    def system(self) -> System:
        return self.replay.systems[self.state]


class _Replay:
    """The moves replayed once on the working system's integer rows: one
    state (rows, scales) for the working system, then one per move, each
    row's scale (num, den) the factor that turns it into its `Fraction`
    row, kept by `gauss.pivot_integer_rows`.  Each state is printed the
    first time its text is read, and the `Fraction` systems, from the
    working system's on, are built the first time one is read."""

    def __init__(self, ws: WorkingSystem, moves: tuple[tuple[int, int | None], ...]):
        self.working = ws
        self.moves = moves
        rows, scales = ws.rows, ws.scales
        self.states = [(rows, scales)]
        self.pivot_ids = []
        for var, p in moves:
            if p is None:
                scales = [s for row, s in zip(rows, scales) if not row[1][var]]
                rows = _drop_sign_row(rows, var)
                self.pivot_ids.append(None)
            else:
                self.pivot_ids.append(rows[p][0])
                scales = list(scales)
                rows = pivot_integer_rows(rows, p, var, scales)
            self.states.append((rows, scales))
        self._texts: dict[int, str] = {}

    def text(self, state: int) -> str:
        text = self._texts.get(state)
        if text is None:
            ws = self.working
            text = self._texts[state] = _print_scaled_rows(ws.variables, *self.states[state], ws.extension_id)
        return text

    @cached_property
    def systems(self) -> tuple[System, ...]:
        """Each state's `Fraction` system, the working system's first."""
        systems = [self.working.system]
        for (var, _), pivot_id, (rows, _) in zip(self.moves, self.pivot_ids, self.states[1:]):
            previous = systems[-1]
            if pivot_id is None:
                kept = {row[0] for row in rows}
                systems.append(previous.with_rows(c for c in previous.constraints if c.cid in kept))
            else:
                systems.append(substitute_through(previous, var, pivot_id))
        return tuple(systems)


def _print_scaled_rows(names: tuple[str, ...], rows: tuple, scales, extension_id: int) -> str:
    """print_system(system, orientation="ge") of the system over the
    variables `names` whose row i is rows[i] times scales[i], written from
    the integers.  Every row is '<='; in a scale (num, den) den is positive
    and num too, but on an all-zero row, which may have num = 0.  The
    system has no objective and no cone flag, and its plain sign rows are
    exactly the rows that are not pivotable other than the extension: each
    is -x <= 0, listed on the nonneg: line."""
    lines = []
    signed = set()
    for (cid, coeffs, rhs, pivotable), (num, den) in zip(rows, scales):
        if not pivotable and cid != extension_id:
            signed.update(v for v, x in enumerate(coeffs) if x)
            continue
        g = gcd(num, den)
        num, den = -num // g, den // g  # >= negates both sides
        terms = ((v, x * num // (h := gcd(x, den)), den // h) for v, x in enumerate(coeffs) if x)
        h = gcd(rhs, den)
        lines.append(format_row(terms, names, ">=", rhs * num // h, den // h))
    return print_lines(names, lines, signed)


@dataclass(frozen=True)
class PipelineTrace:
    """What `run` decided, and the moves it made: (variable, index of the
    pivot row among the rows at that step, or None for the zero fallback).
    The moves are replayed on integer rows (`_Replay`) the first time
    `steps`, a text or `terminal` is read.  `working_text` and
    `terminal_text` are the working and terminal systems printed as
    `print_system(..., orientation="ge")` prints them; the terminal text
    is the last step's text, or the working text when there is no step."""

    working: WorkingSystem
    moves: tuple[tuple[int, int | None], ...]
    interval: Interval
    verdict: str  # "solvable" | "unsolvable"

    @property
    def solvable(self) -> bool:
        return self.verdict == "solvable"

    @cached_property
    def _replay(self) -> _Replay:
        return _Replay(self.working, self.moves)

    @cached_property
    def steps(self) -> tuple[PipelineStep, ...]:
        replay = self._replay
        names = self.working.variables
        labels = dict(self.working.labels)
        steps = []
        for state, ((var, _), pivot_id) in enumerate(zip(self.moves, replay.pivot_ids), start=1):
            if pivot_id is None:
                steps.append(PipelineStep(var, names[var], None, None, "fallback-zero", replay, state))
            else:
                label = labels[pivot_id]
                steps.append(PipelineStep(var, names[var], pivot_id, label, _pivot_kind(label), replay, state))
        return tuple(steps)

    @property
    def working_text(self) -> str:
        return self._replay.text(0)

    @property
    def terminal_text(self) -> str:
        return self._replay.text(len(self.moves))

    @property
    def terminal(self) -> System:
        return self._replay.systems[-1]


def build_working_system(primal: System) -> WorkingSystem:
    """Cap the (primal) cone with sum(x) <= 2 and dualize; the result is
    kept in the primal's memo under "working_system" (core.System).

    A system flagged as a cone must already be homogeneous standard shape and
    is used as-is; anything else must be bounded standard shape and is
    homogenized first; its primal cone and boundedness come from the
    primal's memo when a caller already asked (cone module).  The cap row
    goes in first so its multiplier is l1.
    """
    return primal._remember("working_system", partial(_build_working_system, primal))


def _build_working_system(primal: System) -> WorkingSystem:
    """The dual's integer rows, in `strong_elementary_dual`'s order and
    with its ids: one row per cone variable j, -(column j of the capped
    cone's main rows) <= -1; the extension 2*l1 <= 2 (the cone's rows are
    homogeneous, so only the cap's right side enters it); a sign row
    -l_i <= 0 per multiplier.  The columns are read off the main rows'
    integer forms over their common denominator, and each row is divided
    by its gcd, which gives the coprime row `gauss.integer_rows` makes of
    the `Fraction` dual; that row times g/den is the `Fraction` row, so its
    scale is (g, den).  The extension's scale is 2 and each sign row's 1."""
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
    forms = [([1] * nvars, 2, 1)] + [integer_row(c, nvars) for c in mains]
    nlam = len(forms)
    den = lcm(*(d for _, _, d in forms))
    rows = []
    scales = []
    for j in range(nvars):
        coeffs = [-a[j] * (den // d) for a, _, d in forms]
        g = gcd(*coeffs, den)
        rows.append((j, tuple(x // g for x in coeffs), -den // g, True))
        scales.append((g, den))
    ext_id = nvars
    rows.append((ext_id, (1,) + (0,) * (nlam - 1), 1, False))
    scales.append((2, 1))
    for i in range(nlam):
        rows.append((ext_id + 1 + i, tuple(-1 if k == i else 0 for k in range(nlam)), 0, False))
    scales.extend([(1, 1)] * nlam)

    labels = [(j, f"row-{cone.variables[j]}") for j in range(nvars)]
    labels.append((ext_id, "extension"))
    labels.extend((ext_id + 1 + i, f"sign-l{i + 1}") for i in range(nlam))
    variables = tuple(f"l{i + 1}" for i in range(nlam))
    return WorkingSystem(tuple(rows), tuple(scales), variables, tuple(labels), ext_id, cone.variables, mains)


def _pivot_kind(label: str) -> str:
    return "original-main" if label.startswith("row-") else "converted-sign"


def _main_first(rows: tuple, labels: dict[int, str], var: int) -> int | None:
    """Index of the pivot the default rule takes: among the pivotable rows
    that mention var, the original main rows first, then the lowest id."""
    candidates = [i for i, row in enumerate(rows) if row[3] and row[1][var]]
    if not candidates:
        return None
    originals = [i for i in candidates if labels[rows[i][0]].startswith("row-")]
    return min(originals or candidates, key=lambda i: rows[i][0])


def _plan(rule: PivotRule, variables: tuple[str, ...], remaining: list[int]):
    """The rule as (variable index, row label or None) moves; None lets
    `_main_first` pick the pivot."""
    if rule.kind == "main-first":
        return [(var, None) for var in remaining]
    if rule.kind != "paper-seq":
        raise PivotRuleError(f"unknown pivot rule kind {rule.kind!r}")
    plan = []
    for lname, row_label in rule.sequence:
        if lname not in variables:
            raise PivotRuleError(f"no multiplier variable named {lname!r}")
        plan.append((variables.index(lname), row_label))
    if sorted(var for var, _ in plan) != remaining:
        raise PivotRuleError("pivot sequence must eliminate every multiplier except l1 exactly once")
    return plan


def _labeled_pivot(rows: tuple, labels: dict[int, str], var: int, row_label: str, names) -> int:
    by_label = {labels[row[0]]: i for i, row in enumerate(rows)}
    if row_label not in by_label:
        raise PivotRuleError(f"no row labeled {row_label!r} at this step")
    p = by_label[row_label]
    if not rows[p][3]:
        raise PivotRuleError(f"row {row_label!r} is not an admissible pivot")
    if not rows[p][1][var]:
        raise PivotRuleError(f"row {row_label!r} does not mention {names[var]}")
    return p


def _outcome(rows: tuple) -> tuple[Interval, str]:
    """The interval and verdict of integer rows that mention only l1; every
    row is '<=' (`gauss.integer_rows`)."""
    interval = interval_of((coeffs[LAMBDA_ONE], rhs, False) for _, coeffs, rhs, _ in rows)
    return interval, "solvable" if interval.is_point(1) else "unsolvable"


def run(primal: System, rule: PivotRule = MAIN_ROWS_FIRST) -> PipelineTrace:
    """Run the elimination loop to a one-variable verdict on l1.

    Pivots are chosen and taken on the working system's integer rows, and
    only the moves are recorded; the trace replays them when its steps, a
    text or its terminal system is read."""
    ws = build_working_system(primal)
    names = ws.variables
    rows = ws.rows
    labels = dict(ws.labels)
    remaining = [v for v in range(len(names)) if v != LAMBDA_ONE]
    moves = []
    for var, row_label in _plan(rule, names, remaining):
        if row_label is None:
            p = _main_first(rows, labels, var)
        else:
            p = _labeled_pivot(rows, labels, var, row_label, names)
        rows = _drop_sign_row(rows, var) if p is None else pivot_integer_rows(rows, p, var)
        moves.append((var, p))
    interval, verdict = _outcome(rows)
    return PipelineTrace(ws, tuple(moves), interval, verdict)


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
    states: int  # distinct (remaining, rows) states the walk visited


def explore(primal: System, state_budget: int = 4000) -> ExploreResult:
    """Walk every admissible pivot sequence (all lambda orders, all eligible
    rows; the zero fallback only when no row is eligible).

    States reached by different paths are merged, so the walk is a DAG
    traversal; `state_budget` caps the number of distinct states and a
    LincertError subclass is raised beyond it.  The input is pivot-sensitive
    when two sequences end in different verdicts.

    The walk runs on the working system's integer rows (`gauss.integer_rows`'
    form: constraint id, coefficients, rhs, pivotable), in constraint-id
    order, and pivots with `gauss.pivot_integer_rows`.  Each row is a
    positive multiple of the row `substitute_through` emits, which changes
    nothing the walk reads: eligibility, pivotability (sign and extension
    rows are not pivotable; every rewritten row is) and each terminal
    bound rhs/a.

    A child is named before it is computed, by the remaining variables and
    the ids of the pivot rows taken.  One memo keyed by that name holds
    each child's result; a child is pivoted and visited only on a miss, and
    `states` counts the visits.  The name fixes the rows:
    - Let C be the pivot rows taken.  Their original forms, restricted to
      the pivoted variables, form a nonsingular matrix, because every
      pivot element was nonzero (elimination in any order is an LU
      factorisation of it).
    - So each surviving row is the coprime positive multiple of the unique
      vector in row0 + span{p0 : p in C} that is zero on the pivoted
      variables (the Schur complement, as in Bareiss 1968).  Which pivot
      row eliminated which variable does not matter.
    - A row is pivotable if and only if its original form mentions a
      pivoted variable, or it was pivotable at the start: a row changes
      only when a pivot rewrites it, and it first does so on a variable
      its original form mentions.
    - Span invariant.  Call the pivotable rows and the extension the
      contents.  A pivot on w through c rewrites each other row r to a
      positive multiple of r - (r_w/c_w)c, and sends a multiple of c,
      minus its w entry, to the id of w's sign row.  So the span of the
      contents, restricted to the remaining variables, stays the span of
      the original contents restricted to them.
    - Zero move.  The zero move on v needs every content to be 0 on v.
      By the invariant that holds exactly when v's original column is
      zero, that is when v's cone row is 0 <= 0: at every state on every
      path.  It drops v's sign row, id extension_id + 1 + v, and changes
      no other row.  So the zero moves, hence the pivoted variables, are
      fixed by the remaining variables.
    The rows keep constraint-id order, so the child's rows tuple is fixed
    too.  And the surviving ids are the original ones minus the pivot
    rows taken and the dropped sign rows, so two names with the same
    remaining variables leave different rows: each name is one distinct
    (remaining, rows) state.

    The rows' id order is the order candidates are tried in.  Each distinct
    terminal (interval, verdict) gets a small int, and outcomes are merged
    by those ints; Fractions are built only for the terminal intervals.

    `visit` calls itself, so its closure cell refers to the function that
    holds it: a reference cycle through which the memo and every rows
    tuple would wait for the cycle collector.  `visit` is cleared once the
    walk returns or raises (ExploreBudgetExceeded included), which breaks
    the cycle, and reference counting frees them at once.
    """
    ws = build_working_system(primal)
    names = ws.variables
    labels = dict(ws.labels)
    named: dict = {}  # (remaining, pivot-row bits) -> (outcomes, count)
    terminals: dict[tuple[Interval, str], int] = {}
    states = 0

    def visit(rows: tuple, remaining: frozenset[int], taken: int):
        nonlocal states
        states += 1
        if states > state_budget:
            raise ExploreBudgetExceeded(f"pivot tree exceeds {state_budget} distinct states")
        if not remaining:
            return {terminals.setdefault(_outcome(rows), len(terminals)): ()}, 1
        outcomes: dict[int, tuple] = {}
        count = 0
        for var in sorted(remaining):
            rest = remaining - {var}
            pivots = [i for i, row in enumerate(rows) if row[3] and row[1][var]]
            for p in pivots or [None]:
                if p is None:
                    label, signature = "zero", (rest, taken)
                else:
                    cid = rows[p][0]
                    label, signature = labels[cid], (rest, taken | 1 << cid)
                found = named.get(signature)
                if found is None:
                    new_rows = _drop_sign_row(rows, var) if p is None else pivot_integer_rows(rows, p, var)
                    found = named[signature] = visit(new_rows, *signature)
                sub_outcomes, sub_count = found
                count += sub_count
                head = (names[var], label)
                for terminal, suffix in sub_outcomes.items():
                    if terminal not in outcomes:
                        outcomes[terminal] = (head,) + suffix
        return outcomes, count

    remaining = frozenset(v for v in range(len(names)) if v != LAMBDA_ONE)
    try:
        outcomes, count = visit(ws.rows, remaining, 0)
    finally:
        visit = None  # breaks the closure's cycle; see the docstring
    by_id = list(terminals)
    ordered = sorted(
        (ExploreOutcome(*by_id[terminal], seq) for terminal, seq in outcomes.items()),
        key=lambda o: (o.verdict, o.interval.describe(), o.sequence),
    )
    verdicts = {o.verdict for o in ordered}
    return ExploreResult(tuple(ordered), count, len(verdicts) > 1, states)


def _drop_sign_row(rows: tuple, var: int) -> tuple:
    """The zero fallback on integer rows: drop the sign row -var <= 0; no
    other row may mention var."""
    sign = tuple(-1 if v == var else 0 for v in range(len(rows[0][1])))
    out = []
    dropped = False
    for row in rows:
        if row[1][var]:
            if not dropped and not row[3] and row[1] == sign:
                dropped = True
                continue
            raise InvariantError("fallback hit a row that still mentions the variable")
        out.append(row)
    return tuple(out)
