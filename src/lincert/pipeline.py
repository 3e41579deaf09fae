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
cone's rows, each with the scale that turns it into its `Fraction` row,
and the dual's row labels.

Every move is a pivot on coprime integer rows, through
`gauss.pivot_integer_rows`, without fractions (as in Bareiss 1968).  The
admissible rows for a variable (`_moves`) are the pivotable rows that
mention it or, when there is none, its own sign row -l_v <= 0: the zero
move, which sets l_v = 0 and, as no other row may then mention l_v, only
drops that row.  A move is named by its row's label, or `zero` when its row
is not pivotable; `parse_rule` and `format_sequence` read and write such
names as `--rule paper-seq:` text, so every sequence `explore` prints
replays through `run`.

Pivot choice is not canonical: different admissible sequences can end in
different terminal intervals and even different verdicts.  The rule object
makes the choice explicit and reproducible: the default takes the
admissible row of lowest id, an original main row first, and a pivot
sequence names every move.  `explore` enumerates the whole pivot tree to
quantify the sensitivity.  `run` makes each move once and keeps the integer
state (rows, scales) after it in its step.  Every text and `Fraction`
system of the trace is read off those states the first time it is read:
the texts are printed from the integers, and the systems are built by
`gauss.fraction_row`.  `explore` only needs the verdicts, and names each
child before computing it by the remaining variables and the set of pivot
rows taken, which fix its rows, so it pivots once per distinct pivot set.

The route errs on one side only: an `unsolvable` verdict is never wrong.
Let e1 be the point l1 = 1, every other l = 0.
- e1 satisfies every working row, and every one with equality except
  l1's sign row -l1 <= 0: each main row reads
  l1 + (column j of the cone's rows) . l' >= 1, the extension 2*l1 <= 2,
  and the other sign rows -l_i <= 0.
- No move touches l1's sign row, as l1 is never eliminated.  A move
  sets a row tight at e1 to equality, a pivotable row or another
  variable's sign row, and each row it rewrites combines two rows tight
  at e1.  So every face the moves restrict the dual to contains e1,
  and the terminal interval, that face's projection onto l1, contains 1.
  The extension survives every run, so the interval ends at a closed 1.
- If the primal is solvable, its cone has a point x != 0, scaled to
  sum(x) = 2.  The main rows times x_j sum to 2*l1 + l'.(Ax) >= 2, and
  l' >= 0, Ax <= 0, so l1 >= 1 on the whole dual and the interval is
  {1}, whatever the pivots.
So every wrong verdict is a false `solvable`, and a solvable primal is
never pivot-sensitive.
Whether the verdict agrees with direct elimination on the input is
measured, never assumed; see the harness module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from math import gcd, lcm

from .core import (
    Interval,
    InvariantError,
    LincertError,
    Provenance,
    System,
    integer_row,
    interval_of,
    validate_standard_shape,
)
from .cone import NonHomogeneousError, is_bounded, primal_cone
from .gauss import fraction_row, pivot_integer_rows
from .sysfile import format_row, print_lines


class UnboundedInputError(LincertError):
    pass


class PivotRuleError(LincertError):
    pass


class ExploreBudgetExceeded(LincertError):
    pass


@dataclass(frozen=True)
class PivotRule:
    """A pivot sequence naming every move, as (lambda name, row label or
    "zero") pairs; the empty sequence is the default rule."""

    sequence: tuple[tuple[str, str], ...] = ()


MAIN_ROWS_FIRST = PivotRule()


def pivot_sequence(pairs) -> PivotRule:
    return PivotRule(tuple((str(a), str(b)) for a, b in pairs))


def parse_rule(text: str) -> PivotRule:
    """The rule `solve9 --rule` names: `main-first`, or `paper-seq:` and
    comma-separated moves lvar@label, each label a row label or `zero`."""
    if text == "main-first":
        return MAIN_ROWS_FIRST
    if not text.startswith("paper-seq:"):
        raise PivotRuleError(f"unknown rule {text!r}; use main-first or paper-seq:SPEC")
    pairs = []
    for entry in text[len("paper-seq:"):].split(","):
        lvar, at, label = entry.strip().partition("@")
        if not at:
            raise PivotRuleError(f"bad pivot entry {entry.strip()!r}; expected lvar@row-label")
        pairs.append((lvar.strip(), label.strip()))
    return pivot_sequence(pairs)


def format_sequence(sequence) -> str:
    """A sequence of (lambda name, label) moves as `parse_rule` reads it
    after `paper-seq:`, and as `solve9 --explore` prints it."""
    return ", ".join(f"{v}@{label}" for v, label in sequence)


LAMBDA_ONE = 0  # the cap row's multiplier l1, the one variable left at the end


@dataclass(frozen=True)
class WorkingSystem:
    """The multiplier system the elimination loop works on, as the coprime
    integer rows `run` and `explore` start from (`gauss.integer_rows`'
    form), with its variables and row labels.  `scales` holds one
    (num, den) per row, the factor num/den that turns the integer row into
    the `Fraction` row.  `system` (the capped cone's strong dual, as
    `dual.strong_elementary_dual` builds it) and `text` are built from
    them the first time each is read.  Nothing here is the primal or its
    cone, so the primal's memo that keeps it makes no reference cycle."""

    rows: tuple
    scales: tuple[tuple[int, int], ...]
    variables: tuple[str, ...]
    labels: tuple[tuple[int, str], ...]
    extension_id: int

    @cached_property
    def system(self) -> System:
        ext = self.extension_id
        rows = []
        for row, scale in zip(self.rows, self.scales):
            kind = Provenance.main() if row[3] else Provenance.extension() if row[0] == ext else Provenance.sign()
            rows.append(fraction_row(row, scale, kind))
        return System(self.variables, tuple(rows))

    @cached_property
    def text(self) -> str:
        return _print_scaled_rows(self.variables, self.rows, self.scales, self.extension_id)


@dataclass(frozen=True)
class PipelineStep:
    """One move of `run`, and the integer state (rows, scales) after it.
    `text` (the system after the move, printed as
    `print_system(..., orientation="ge")` prints it) and `system` (that
    `Fraction` system) are built from the state the first time each is
    read; `system` keeps each row the move left as it was, with its
    `Constraint` from `before`, and gives each row the move rewrote the
    provenance derived((its id, the pivot's id)), as
    `gauss.substitute_through` does.  A zero move, the pivot on a sign
    row, reports no pivot (pivot_id and pivot_label None) and the kind
    "fallback-zero".  Equality and the hash compare the move alone
    (variable, pivot and kind): steps of two traces that make the same
    move compare equal whatever their states."""

    var: int
    var_name: str
    pivot_id: int | None
    pivot_label: str | None
    kind: str  # "original-main" | "converted-sign" | "fallback-zero"
    rows: tuple = field(repr=False, compare=False)
    scales: list = field(repr=False, compare=False)
    before: "PipelineStep | WorkingSystem" = field(repr=False, compare=False)
    working: WorkingSystem = field(repr=False, compare=False)

    @cached_property
    def text(self) -> str:
        return _print_scaled_rows(self.working.variables, self.rows, self.scales, self.working.extension_id)

    def report(self, with_text: bool = True) -> dict:
        """The step as `solve9 --json` and a difftest trial's detail report
        it; `system` is its text, or None unless `with_text`."""
        return {
            "eliminated": self.var_name,
            "pivot": self.pivot_label,
            "kind": self.kind,
            "system": self.text if with_text else None,
        }

    @cached_property
    def system(self) -> System:
        before = self.before
        kept = {row[0]: (row, c) for row, c in zip(before.rows, before.system.constraints)}
        out = []
        for row, scale in zip(self.rows, self.scales):
            old, c = kept[row[0]]
            out.append(c if old is row else fraction_row(row, scale, Provenance.derived((row[0], self.pivot_id))))
        return before.system.with_rows(out)


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
    """What `run` decided, and its steps: one per move, each holding the
    integer state after it.  `working_text` and `terminal_text` are the
    working and terminal systems printed as
    `print_system(..., orientation="ge")` prints them, and `terminal` is
    the terminal `Fraction` system: the last step's, or the working
    system's when there is no step."""

    working: WorkingSystem
    steps: tuple[PipelineStep, ...]
    interval: Interval
    verdict: str  # "solvable" | "unsolvable"

    @property
    def solvable(self) -> bool:
        return self.verdict == "solvable"

    @property
    def working_text(self) -> str:
        return self.working.text

    @property
    def terminal_text(self) -> str:
        return (self.steps[-1] if self.steps else self.working).text

    @property
    def terminal(self) -> System:
        return (self.steps[-1] if self.steps else self.working).system


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
    return WorkingSystem(tuple(rows), tuple(scales), variables, tuple(labels), ext_id)


def _moves(rows: tuple, var: int) -> list[int]:
    """Indices of the admissible pivot rows for var, in id order: the
    pivotable rows that mention it or, when there is none, its own sign
    row -var <= 0 (the zero move), which no other row may mention."""
    moves = [i for i, row in enumerate(rows) if row[3] and row[1][var]]
    if moves:
        return moves
    moves = [i for i, row in enumerate(rows) if row[1][var]]
    sign = tuple(-(v == var) for v in range(len(rows[0][1])))
    if len(moves) != 1 or rows[moves[0]][1] != sign:
        raise InvariantError("zero move hit a row that still mentions the variable")
    return moves


def _plan(rule: PivotRule, variables: tuple[str, ...]):
    """The rule as (variable index, move name or None) pairs; None takes
    the first admissible row."""
    remaining = [v for v in range(len(variables)) if v != LAMBDA_ONE]
    if not rule.sequence:
        return [(var, None) for var in remaining]
    plan = []
    for lname, name in rule.sequence:
        if lname not in variables:
            raise PivotRuleError(f"no multiplier variable named {lname!r}")
        plan.append((variables.index(lname), name))
    if sorted(var for var, _ in plan) != remaining:
        raise PivotRuleError("pivot sequence must eliminate every multiplier except l1 exactly once")
    return plan


def _move_name(row: tuple, labels: dict[int, str]) -> str:
    """The name of the move that pivots on row: its label, or "zero" for a
    row that is not pivotable (a sign row, in the zero move)."""
    return labels[row[0]] if row[3] else "zero"


def _named_move(rows: tuple, labels: dict[int, str], var: int, name: str, names) -> int:
    """Index of the admissible row for var that the move name names."""
    for i in _moves(rows, var):
        if _move_name(rows[i], labels) == name:
            return i
    if name == "zero":
        raise PivotRuleError(f"{names[var]} cannot take the zero move: a pivotable row mentions it")
    by_label = {labels[row[0]]: i for i, row in enumerate(rows)}
    if name not in by_label:
        raise PivotRuleError(f"no row labeled {name!r} at this step")
    reason = f"does not mention {names[var]}" if rows[by_label[name]][3] else "is not an admissible pivot"
    raise PivotRuleError(f"row {name!r} {reason}")


def _outcome(rows: tuple) -> tuple[Interval, str]:
    """The interval and verdict of integer rows that mention only l1; every
    row is '<=' (`gauss.integer_rows`)."""
    interval = interval_of((coeffs[LAMBDA_ONE], rhs, False) for _, coeffs, rhs, _ in rows)
    return interval, "solvable" if interval.is_point(1) else "unsolvable"


def run(primal: System, rule: PivotRule = MAIN_ROWS_FIRST) -> PipelineTrace:
    """Run the elimination loop to a one-variable verdict on l1.

    Pivots are chosen and taken on the working system's integer rows, each
    move once, with the scales kept beside them; each step holds the
    state (rows, scales) after its move, from which its text and its
    `Fraction` system are built when read."""
    ws = build_working_system(primal)
    names = ws.variables
    labels = dict(ws.labels)
    steps = []
    state = ws
    for var, name in _plan(rule, names):
        rows = state.rows
        p = _moves(rows, var)[0] if name is None else _named_move(rows, labels, var, name, names)
        cid, _, _, pivotable = rows[p]
        if pivotable:
            kind = "original-main" if cid < ws.extension_id else "converted-sign"
            pivot_id, label = cid, labels[cid]
        else:
            kind, pivot_id, label = "fallback-zero", None, None
        scales = list(state.scales)
        rows = pivot_integer_rows(rows, p, var, scales)
        state = PipelineStep(var, names[var], pivot_id, label, kind, rows, scales, state, ws)
        steps.append(state)
    interval, verdict = _outcome(state.rows)
    return PipelineTrace(ws, tuple(steps), interval, verdict)


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
    """Walk every admissible pivot sequence (all lambda orders, all
    admissible rows of `_moves`; the zero move only when no pivotable row
    mentions the variable).

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
      path.  It pivots on v's sign row, id extension_id + 1 + v, which no
      other row mentions, so it drops that row and changes no other.  So
      the zero moves, hence the pivoted variables, are fixed by the
      remaining variables, and so are the sign-row ids they add to the
      name: the name still fixes the rows.
    The rows keep constraint-id order, so the child's rows tuple is fixed
    too.  And the surviving ids are the original ones minus the pivot
    rows taken, so two names with the same remaining variables leave
    different rows: each name is one distinct (remaining, rows) state.

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
            for p in _moves(rows, var):
                signature = (rest, taken | 1 << rows[p][0])
                found = named.get(signature)
                if found is None:
                    found = named[signature] = visit(pivot_integer_rows(rows, p, var), *signature)
                sub_outcomes, sub_count = found
                count += sub_count
                head = (names[var], _move_name(rows[p], labels))
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
