"""Fourier elimination with replayable traces.

Eliminating a variable pairs each row where it appears positively with each
row where it appears negatively; the pair's positive combination drops the
variable.  Recording the combination coefficients per produced row makes the
procedure self-certifying: an infeasible system eventually produces a row
[0] <= r with r < 0, and replaying the trace turns that row into nonnegative
multipliers over the input rows (a Farkas certificate).  A feasible system
yields an exact witness by back-substitution: each variable, last
eliminated first, takes the midpoint of its fiber, read off its rows by
`core.interval_of`, the rule that also gives solve9's terminal interval.

The implicit equalities, <= rows tight at every feasible point, come from
the same elimination: they are the rows tight at the witness, and the
derived [0] <= 0 rows, dropped but kept in the trace, certify them.  Both
certificates replay the trace the same way, last step first, through
_spread: farkas_from_trace follows each row's first derivation, and
equality_certificate splits a row's weight over all its derivations.

Three rules keep the rows in check, and none changes a solution set:
derived tautologies are dropped, exact duplicates merge, and within a chain
of eliminations Chernikov's history rule skips every pair whose derived row
is redundant before the pair is combined (see _History).  Every elimination
chain runs through one loop, _chain, which eliminates the cheapest
variable first each step, and keeps its whole state in one _History: each
row's histories and integer form, the id floor, the steps and, per step,
the fiber (the rows that mention the eliminated variable).
Back-substitution walks the steps and fibers last first.

A pair is combined on integer rows, in the fraction-free style of Bareiss
(1968).  With P and N the two rows times the lcm of their denominators
(den_P, den_N; a derived row already has denominator 1), A = P[x] > 0 and
B = -N[x] > 0, the Fraction rows pos and neg have x coefficients
a = A/den_P and -b = -B/den_N, and

    pos/a + neg/b = (B*P + A*N) / (A*B),

so the derived row, a coprime integer vector, is (B*P + A*N)/g with g the
gcd of its entries and right side, and its derivation weights are
B*den_P/g and A*den_N/g.  The chain's state is integers only (_History):
each row is one tuple (cid, coefficients, rhs, den, strict), an input
row's made when the chain starts and a kept row's by the pair step, and
each history is a bitmask over the input positions.  The pair split, the
duplicate-merge keys, the choice of the next variable, the contradiction
check, the fibers, back-substitution and the witness check, which also
finds the tight rows, read only these tuples.  Each step still returns a
Fraction System: a kept row's Constraint takes its Fractions from a memo
that lives as long as the chain, so each distinct integer becomes one
Fraction per chain.  A chain that stops at a contradiction (feasibility,
not project) ends its step at the first contradiction row it derives;
that is the row the full step would offer first, since the rows passed
through were checked before the step and ids follow creation order.

The back half builds Fractions only for what it returns:
back-substitution compares each fiber's bounds as integer pairs
(core.interval_of) and builds its two winning bounds and its midpoint;
both replays carry unreduced integer (numerator, denominator) weights and
build one Fraction per input row; and the certificate checks,
is_infeasibility_certificate here and core.check_multiplier_certificate,
read core._combination's integer sums.  feasibility checks every witness
it makes and every Farkas certificate it replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Callable

from .core import (
    Constraint,
    Interval,
    InvariantError,
    LinearExpr,
    MultiplierVector,
    Point,
    Provenance,
    Relation,
    RelationError,
    System,
    UnknownConstraintError,
    UnknownVariableError,
    ZERO,
    _combination,
    check_multiplier_certificate,
    integer_row,
    interval_of,
)

# One derivation: ((parent_id, coefficient > 0), ...) whose weighted sum is the row.
Derivation = tuple[tuple[int, Fraction], ...]
# A chain row (cid, coefficients, rhs, den, strict): the row times den, the
# lcm of its denominators (core.integer_row), strict for a < row.
ChainRow = tuple[int, tuple[int, ...], int, int, bool]


@dataclass(frozen=True)
class ProducedRow:
    cid: int
    derivations: tuple[Derivation, ...]  # >= 1; extras come from merged duplicates


@dataclass(frozen=True)
class EliminationStep:
    var: int
    produced: tuple[ProducedRow, ...]  # new rows only
    zero_rows: tuple[Derivation, ...] = ()  # derived [0] <= 0 rows, dropped
    merged: tuple[tuple[int, Derivation], ...] = ()  # extra derivations of pass-through rows


@dataclass(frozen=True)
class EliminationTrace:
    input_ids: frozenset[int]
    steps: tuple[EliminationStep, ...] = ()


@dataclass(frozen=True)
class FeasibilityVerdict:
    """A verdict with its evidence: the witness of a feasible system or the
    Farkas multipliers of an infeasible one.

    A feasible verdict also answers implicit_ids, the <= rows tight at the
    witness (the implicit equalities), and equality_certificate, a replay
    of the trace positive on exactly those rows.  The tight rows are found
    when the witness is checked, but the replay runs, and is checked
    against them (InvariantError on a mismatch), only the first time
    either is read; both are then kept, so a caller that reads only the
    flag or the witness never pays for the replay and no caller sees ids
    that were not checked.  The trace is dropped once they are kept.  An
    infeasible verdict has no implicit ids and no equality certificate.
    """

    feasible: bool
    witness: Point | None = None
    certificate: MultiplierVector | None = None  # infeasible: Farkas multipliers
    _find_evidence: Callable[[], tuple[frozenset[int], MultiplierVector]] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def _evidence(self) -> tuple[frozenset[int], MultiplierVector | None]:
        if self._find_evidence is None:
            return frozenset(), None
        evidence = self._find_evidence()
        object.__setattr__(self, "_find_evidence", None)  # frees the trace once read
        return evidence

    @property
    def implicit_ids(self) -> frozenset[int]:
        return self._evidence[0]

    @property
    def equality_certificate(self) -> MultiplierVector | None:
        return self._evidence[1]


class _Fractions(dict):
    """A chain's memo of Fraction(n) per integer n, made on first use."""

    def __missing__(self, n: int) -> Fraction:
        value = self[n] = Fraction(n)
        return value


class _History:
    """The state of one elimination chain, and Chernikov's history rule
    (Kohler 1967) that it serves.

    Each chain row carries its histories: per derivation, the set of chain
    inputs its multipliers are positive on, as a bitmask over the inputs'
    positions.  After k eliminations a pair is skipped before it is
    combined when every union of its parents' histories has more than
    k + 1 bits.  Imbert's 1990 refinement is not used.

    Why the solution set stays exact.  A chain row combines the inputs by a
    lambda in C_k = {lambda >= 0 : lambda A = 0}, A being the input columns
    of the eliminated variables, and a history is lambda's support.  An
    extreme ray of C_k has minimal support: at most rank(A) + 1 <= k + 1
    rows.  Each is an extreme ray of C_(k-1) that misses the new variable or
    a positive mix of two of opposite sign on it, so by induction every
    extreme ray's row is produced and never skipped.  A skipped row's lambda
    is not extreme: lambda = sum mu_j e_j over extreme rays with supports
    inside lambda's, whose rows weighted by mu_j have the same left and right
    sides, so they imply it.  If it is strict, some strict input i has
    lambda_i > 0, so some e_j with mu_j > 0 has e_j[i] > 0: that row is
    strict and so is the sum.  Dropped tautologies (0 <= t, t >= 0; 0 < t,
    t > 0) only lower the sum's right side.  So an infeasible chain still
    reaches a contradiction row, and every fiber stays exact.

    A merged duplicate keeps every history it arrived with.  One row can
    have several lambdas and only one may be extreme; extreme rays built on
    the row later need that one's support.  Keeping only the first or the
    smallest history can skip them and leave back-substitution an empty
    interval.

    The history also holds the rest of the chain state, all of it integers
    but the trace.  `rows` holds the current chain system's rows as
    ChainRow tuples, in its order, and `inputs` the input system's; `of`
    maps each current row's id to its histories.  `bad` is the id of the
    chain's first contradiction row, or None: an input row is checked when
    the chain starts, a derived row when the pair step makes it, and a
    contradiction, free of every variable, passes through every later step.
    With `stop_at_contradiction` the step that derives it ends there.
    `fractions` is the chain's Fraction memo.  `next_id` is the floor for
    fresh ids, so ids are unique along the chain.  `steps` holds each
    EliminationStep in order (during step k, k - 1 of them: the history
    rule reads k off it), and `fibers` the matching rows that mention the
    eliminated variable: back-substitution reads them.
    """

    def __init__(self, system: System, stop_at_contradiction: bool = False):
        nvars = len(system.variables)
        self.rows: list[ChainRow] = []
        self.bad: int | None = None
        for c in system.constraints:
            coeffs, rhs, den = integer_row(c, nvars)
            self.rows.append((c.cid, tuple(coeffs), rhs, den, c.relation is Relation.LT))
            if self.bad is None and not any(coeffs) and not c.relation.holds(0, rhs):
                self.bad = c.cid
        self.inputs = self.rows
        self.of = {row[0]: {1 << i} for i, row in enumerate(self.rows)}
        self.stop_at_contradiction = stop_at_contradiction
        self.fractions = _Fractions()
        self.next_id = system.next_id()
        self.steps: list[EliminationStep] = []
        self.fibers: list[list[ChainRow]] = []


def eliminate_var(system: System, var: int, *, history: _History | None = None) -> tuple[System, EliminationTrace]:
    """Project the system onto the remaining variables.

    Rows without the variable pass through unchanged (same ids).  Each
    positive/negative pair contributes one derived row, normalized to a
    coprime integer vector: (B*P + A*N)/g on the pair's integer rows, with
    derivation weights B*den_P/g and A*den_N/g (module docstring).  A pair
    cancelling to [0] <= 0 or [0] < 0 has g = 0 and keeps the weights
    den_P/A and den_N/B.  Derived tautologies are dropped, exact
    duplicates merge (all parent combinations kept in the trace), and pairs
    redundant by Chernikov's rule are skipped (see _History).  None of this
    changes the solution set, and every derived row keeps its full
    derivation, so certificates are unaffected.  The step also records dropped
    [0] <= 0 rows and duplicates of pass-through rows (equality_certificate).

    The chain loop passes the chain's history, which holds the system's
    rows as integers, supplies the id floor and records the step and its
    fiber; a history made with stop_at_contradiction ends the step at the
    first contradiction row it derives.  A lone call needs none: every pair
    then has a 2-id history, within the limit 1 + 1, and the step is full.
    """
    if not 0 <= var < len(system.variables):
        raise UnknownVariableError(f"no variable index {var}")
    if history is None:
        history = _History(system)
    if not history.steps:  # later chain systems hold only rows this check passed and derived rows
        for c in system.constraints:
            if c.relation is Relation.EQ:
                raise RelationError(f"constraint {c.cid} is an equality; expand it first")
    limit = len(history.steps) + 2  # step k = len(steps) + 1 allows k + 1 ids

    constraints = []
    rows = []
    positive = []
    negative = []
    for c, row in zip(system.constraints, history.rows):
        a = row[1][var]
        if a == 0:
            constraints.append(c)
            rows.append(row)
        else:
            (positive if a > 0 else negative).append(row)

    of = history.of
    histories = {row[0]: of[row[0]] for row in rows}
    derivations_of: dict[int, tuple[Derivation, ...]] = {}
    zero_rows: list[Derivation] = []
    merged: list[tuple[int, Derivation]] = []
    by_key = {row[1:]: row[0] for row in rows}  # (coefficients, rhs, den, strict) names the Fraction row
    fractions = history.fractions
    next_id = history.next_id
    for (p_cid, p, p_rhs, den_p, p_strict), (n_cid, n, n_rhs, den_n, n_strict) in product(positive, negative):
        fits = {u for h in of[p_cid] for g in of[n_cid] if (u := h | g).bit_count() <= limit}
        if not fits:
            continue  # redundant by Chernikov's rule
        a = p[var]
        b = -n[var]
        row = [b * x + a * y for x, y in zip(p, n)]
        rhs = b * p_rhs + a * n_rhs
        strict = p_strict or n_strict
        var_free = not any(row)
        if var_free and (rhs > 0 or rhs == 0 and not strict):
            if rhs == 0:
                zero_rows.append(((p_cid, Fraction(den_p, a)), (n_cid, Fraction(den_n, b))))
            continue  # derived tautology: var-free, never binds
        g = gcd(*row, rhs) or a * b  # a strict pair cancelling to [0] < 0: weights as above
        derivation: Derivation = ((p_cid, Fraction(b * den_p, g)), (n_cid, Fraction(a * den_n, g)))
        coeffs = tuple(x // g for x in row)
        rhs //= g
        key = (coeffs, rhs, 1, strict)
        cid = by_key.get(key)
        if cid is not None:
            histories[cid] = histories[cid] | fits
            if cid in derivations_of:
                derivations_of[cid] += (derivation,)
            else:
                merged.append((cid, derivation))
            continue
        expr = LinearExpr(tuple((v, fractions[x]) for v, x in enumerate(coeffs) if x))
        relation = Relation.LT if strict else Relation.LE
        constraints.append(Constraint(next_id, expr, relation, fractions[rhs], Provenance.derived((p_cid, n_cid))))
        rows.append((next_id, *key))
        histories[next_id] = fits
        derivations_of[next_id] = (derivation,)
        by_key[key] = next_id
        next_id += 1
        if var_free and history.bad is None:  # a contradiction: tautologies were dropped above
            history.bad = next_id - 1
            if history.stop_at_contradiction:
                break

    history.rows = rows
    history.of = histories
    history.next_id = next_id
    produced = tuple(ProducedRow(cid, d) for cid, d in derivations_of.items())
    step = EliminationStep(var, produced, tuple(zero_rows), tuple(merged))
    history.steps.append(step)
    history.fibers.append(positive + negative)
    return system.with_rows(constraints), EliminationTrace(frozenset(system.ids()), (step,))


def _chain(
    system: System, pending: set[int], stop_at_contradiction: bool = True
) -> tuple[System, EliminationTrace, int | None, _History]:
    """The one elimination loop: eliminate the variables in `pending`, the
    cheapest first each step (_cheapest_var), threading the chain's history
    through eliminate_var.  Returns the last system, the trace, the id of
    the chain's first contradiction row or None, and the history (the chain
    state); by default it stops at the first contradiction, mid-step."""
    history = _History(system, stop_at_contradiction)
    current = system
    pending = set(pending)
    while pending and not (stop_at_contradiction and history.bad is not None):
        var = _cheapest_var(history.rows, pending)
        pending.remove(var)
        current, _ = eliminate_var(current, var, history=history)
    return current, EliminationTrace(frozenset(system.ids()), tuple(history.steps)), history.bad, history


def _pick_midpoint(interval: Interval) -> Fraction:
    """A point in the relative interior of the fiber; implicit-equality
    detection rests on this (see _back_substitute)."""
    lo, hi = interval.lo, interval.hi
    if interval.empty:
        raise InvariantError("empty interval during back-substitution")  # pragma: no cover
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    if hi is not None:
        return hi - 1
    return ZERO


def _back_substitute(history: _History, nvars: int) -> tuple[list[int], int]:
    """Fix the variables last-eliminated first, each at the midpoint of its
    fiber: the interval (`core.interval_of`) of the rows of its chain system
    that mention it, as the history saved them, with the later variables
    fixed.  The point is held as integers `known` over one common
    denominator `den`, so a row with integer form (coefficients, rhs) and x
    coefficient a bounds a*den*x by rhs*den - sum(coefficients * known);
    `known` is 0 on the variables not yet fixed.  Returns (known, den).

    Each chain system is an exact projection of the one before, so the point
    lies in the relative interior of the solution set (Rockafellar, Convex
    Analysis, Thm 6.8, by induction down the chain): a <= row is tight there
    iff it is tight at every feasible point.
    """
    known = [0] * nvars
    den = 1
    for step, fiber in zip(reversed(history.steps), reversed(history.fibers)):
        var = step.var
        bounds = [
            (coeffs[var] * den, rhs * den - sum(map(mul, coeffs, known)), strict)
            for _, coeffs, rhs, _, strict in fiber
        ]
        mid = _pick_midpoint(interval_of(bounds))
        if den % mid.denominator:
            grown = lcm(den, mid.denominator)
            known = [k * (grown // den) for k in known]
            den = grown
        known[var] = mid.numerator * (den // mid.denominator)
    return known, den


def _cheapest_var(rows: list[ChainRow], remaining) -> int:
    """Variable whose elimination adds the fewest rows (classic FM heuristic);
    deterministic tie-break on the index.  Signs are read off the chain
    rows (_History)."""
    best = None
    for var in sorted(remaining):
        pos = neg = 0
        for row in rows:
            a = row[1][var]
            if a > 0:
                pos += 1
            elif a < 0:
                neg += 1
        cost = pos * neg - (pos + neg)
        if best is None or cost < best[0]:
            best = (cost, var)
    return best[1]


def feasibility(system: System) -> FeasibilityVerdict:
    """Decide the system exactly, with evidence either way, eliminating the
    cheapest variable first each step (_chain).

    Feasible verdicts carry a witness point (midpoint back-substitution),
    checked against every input row before it is returned: a row it fails,
    or a strict row tight there, raises InvariantError.  The implicit
    equalities (the <= rows tight there) and a certificate weighting
    exactly them are checked against each other on first read, a mismatch
    raising InvariantError (FeasibilityVerdict).  Infeasible verdicts carry
    nonnegative multipliers over the input rows whose combination is a
    contradiction row, checked before they are returned (InvariantError if
    the check fails).

    The verdict is kept in the system's memo under "feasibility"
    (core.System): the analyses ask it of one system more than once, as
    implicit_set then is_full_dimensional do, and the second time repeats
    no elimination.  The verdict's lazy evidence holds the rows, the trace
    and the ids of the rows tight at the witness, never the system, so the
    memo makes no reference cycle; it is dropped once the evidence is read.
    """
    return system._remember("feasibility", partial(_decide, system))


def _decide(system: System) -> FeasibilityVerdict:
    nvars = len(system.variables)
    _, trace, bad, history = _chain(system, set(range(nvars)))
    if bad is not None:
        certificate = farkas_from_trace(trace, bad)
        if not is_infeasibility_certificate(system, certificate):
            raise InvariantError("Farkas certificate does not combine the rows into a contradiction")
        return FeasibilityVerdict(False, certificate=certificate)
    known, den = _back_substitute(history, nvars)
    tight = set()
    for c, (_, coeffs, rhs, _, _) in zip(system.constraints, history.inputs):
        slack = rhs * den - sum(map(mul, coeffs, known))  # the row's slack at known/den, times den * its den
        if not c.relation.holds(0, slack):
            raise InvariantError(f"witness fails constraint {c.cid}")
        if slack == 0 and c.relation is Relation.LE:
            tight.add(c.cid)
    witness = Point(tuple((v, Fraction(k, den)) for v, k in enumerate(known)))
    evidence = partial(_equality_evidence, system.variables, system.constraints, trace, frozenset(tight))
    return FeasibilityVerdict(True, witness, _find_evidence=evidence)


def _equality_evidence(
    variables: tuple[str, ...],
    constraints: tuple[Constraint, ...],
    trace: EliminationTrace,
    implicit: frozenset[int],
) -> tuple[frozenset[int], MultiplierVector]:
    """(implicit ids, equality certificate) of a feasible chain: the <= rows
    tight at the witness, `implicit`, and the trace's equality certificate,
    which must weight exactly them.  The system is rebuilt from its
    variables and rows for the replay and the check, and dropped after
    them."""
    system = System(variables, constraints)
    lam = equality_certificate(system, trace)
    if set(lam.ids()) != implicit or not check_multiplier_certificate(system, lam):
        raise InvariantError("equality certificate does not match the rows tight at the witness")
    return implicit, lam


def project(system: System, keep: set[int] | frozenset[int]) -> System:
    """Eliminate every variable not in `keep`, the cheapest first (_chain);
    the solution set is the coordinate projection."""
    for v in keep:
        if not 0 <= v < len(system.variables):
            raise UnknownVariableError(f"no variable index {v}")
    eliminated = set(range(len(system.variables))) - set(keep)
    return _chain(system, eliminated, stop_at_contradiction=False)[0]


def _spread(weights: dict[int, tuple[int, int]], derivation: Derivation, num: int, den: int) -> None:
    """Pass weight num/den on a row down one of its derivations to its
    parents.  Weights are unreduced (numerator, denominator) pairs of ints;
    the replays make one Fraction per input row at the end."""
    for parent, coeff in derivation:
        n = num * coeff.numerator
        d = den * coeff.denominator
        old = weights.get(parent)
        if old is None:
            weights[parent] = (n, d)
        elif old[1] == d:
            weights[parent] = (old[0] + n, d)
        else:
            weights[parent] = (old[0] * d + n * old[1], old[1] * d)


def farkas_from_trace(trace: EliminationTrace, cid: int) -> MultiplierVector:
    """Replay a derived contradiction row back to input-row multipliers.

    Weights flow from the target row down through the first recorded
    derivation of each intermediate row (merged duplicates only append
    later ones).  A step's derivations use rows of the system before it, so
    one pass over the steps, last first, leaves weight on input rows only.
    """
    weights = {cid: (1, 1)}
    for step in reversed(trace.steps):
        for row in step.produced:
            w = weights.pop(row.cid, None)
            if w is not None:
                _spread(weights, row.derivations[0], *w)
    for current in weights:
        if current not in trace.input_ids:
            raise UnknownConstraintError(f"constraint {current} is not recorded in the trace")
    return MultiplierVector.of((current, Fraction(n, d)) for current, (n, d) in weights.items())


def equality_certificate(system: System, trace: EliminationTrace) -> MultiplierVector:
    """Sum of the replays of every [0] <= 0 row of a full elimination.

    On a feasible system it weights exactly the implicit equalities.  Any
    lambda >= 0 with lambda A = 0, lambda b = 0 weights only those, and each
    extreme ray of that cone is a derivation of a chain row (the _History
    argument), perhaps an extra one, so a row's weight is split evenly over
    all its derivations, an input row counting as one of its own.  A step's
    derivations use rows that die at that step, after every step deriving
    them, so one pass over the steps, last first, suffices.
    """
    ways = {cid: 1 for cid in trace.input_ids}
    for step in trace.steps:
        for row in step.produced:
            ways[row.cid] = len(row.derivations)
        for cid, _ in step.merged:
            ways[cid] += 1
    weights = {
        c.cid: (1, 1) for c in system.constraints if c.relation is Relation.LE and c.expr.is_zero and c.rhs == 0
    }
    for step in reversed(trace.steps):
        for derivation in step.zero_rows:
            _spread(weights, derivation, 1, 1)
        for cid, derivation in step.merged:
            if cid in weights:
                num, den = weights[cid]
                _spread(weights, derivation, num, den * ways[cid])
        for row in step.produced:
            w = weights.pop(row.cid, None)
            if w is not None:
                for derivation in row.derivations:
                    _spread(weights, derivation, w[0], w[1] * ways[row.cid])
    return MultiplierVector.of((cid, Fraction(n, d * ways[cid])) for cid, (n, d) in weights.items())


def is_infeasibility_certificate(system: System, lam: MultiplierVector) -> bool:
    """True iff the combination is a contradiction row ([0] <= r < 0, or
    [0] < r <= 0 when strict rows carry weight), read off the integer sums
    of core._combination."""
    sums, rhs, _, strict = _combination(system, lam)
    if any(sums.values()):
        return False
    return rhs <= 0 if strict else rhs < 0
