"""Exact-rational constraint systems and multiplier certificates.

Everything downstream (elimination, duality, cone analysis) is built on the
types here: sparse linear expressions over an ordered variable table,
constraints with provenance, systems with stable constraint ids, and
nonnegative multiplier vectors.  All arithmetic is exact; floats are rejected
on input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping

Rational = Fraction

ZERO = Fraction(0)
_MINUS_ONE = Fraction(-1)


class LincertError(Exception):
    """Base class for all errors raised by this package."""


class UnknownVariableError(LincertError):
    pass


class UnknownConstraintError(LincertError):
    pass


class RelationError(LincertError):
    """A constraint has a relation kind the operation cannot handle."""


class NegativeMultiplierError(LincertError):
    pass


class ShapeError(LincertError):
    """System is not in the standard shape (AX <= b plus x >= 0 sign rows)."""


class InfeasibleSystemError(LincertError):
    """Raised by queries that are undefined on infeasible systems."""


class NonHomogeneousError(LincertError):
    """A cone operation met a row with a nonzero right side."""


class InvariantError(LincertError):
    """lincert's own evidence failed its check: a bug, never a property of
    the input.  Harnesses re-raise it instead of recording an error result."""


# One shared Fraction per integer in -64..64, which is where most of the
# coefficients and right sides that systems are built from fall.
_SMALL = {n: Fraction(n) for n in range(-64, 65)}


def rat(value) -> Fraction:
    """Exact rational from ints, Fractions, or 'p/q' strings. Floats are refused.

    A Fraction comes back as it is, and an int in -64..64 as the one shared
    Fraction for it: a Fraction is immutable, so nothing can tell it from a
    copy."""
    if type(value) is Fraction:
        return value
    if type(value) is int and -64 <= value <= 64:
        return _SMALL[value]
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass ints, Fractions, or 'p/q' strings")
    return Fraction(value)


class Relation(enum.Enum):
    LE = "<="
    LT = "<"
    EQ = "="

    def holds(self, lhs: Fraction, rhs: Fraction) -> bool:
        if self is Relation.LE:
            return lhs <= rhs
        if self is Relation.LT:
            return lhs < rhs
        return lhs == rhs


class RowClass(enum.Enum):
    TAUTOLOGY = "tautology"
    CONTRADICTION = "contradiction"
    INFORMATIVE = "informative"


@dataclass(frozen=True, slots=True)
class LinearExpr:
    """Sparse linear form over variable indices; zero coefficients are never stored."""

    terms: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def from_terms(coeffs: Mapping[int, object] | Iterable[tuple[int, object]]) -> "LinearExpr":
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, Fraction] = {}
        for var, c in items:
            c = rat(c)
            if c != 0:
                acc[var] = acc[var] + c if var in acc else c
        return LinearExpr(tuple(sorted((v, c) for v, c in acc.items() if c != 0)))

    def coeff(self, var: int) -> Fraction:
        for v, c in self.terms:
            if v == var:
                return c
        return ZERO

    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LinearExpr") -> "LinearExpr":
        acc = dict(self.terms)
        for v, c in other.terms:
            acc[v] = acc.get(v, ZERO) + c
        return LinearExpr(tuple(sorted((v, c) for v, c in acc.items() if c != 0)))

    def __neg__(self) -> "LinearExpr":
        return LinearExpr(tuple((v, -c) for v, c in self.terms))

    def __sub__(self, other: "LinearExpr") -> "LinearExpr":
        return self + (-other)

    def scale(self, factor) -> "LinearExpr":
        factor = rat(factor)
        if factor == 0:
            return LinearExpr()
        return LinearExpr(tuple((v, c * factor) for v, c in self.terms))

    def drop(self, var: int) -> "LinearExpr":
        return LinearExpr(tuple((v, c) for v, c in self.terms if v != var))

    def value_at(self, point: "Point") -> Fraction:
        total = ZERO
        for v, c in self.terms:
            total += c * point.value(v)
        return total


@dataclass(frozen=True, slots=True)
class Provenance:
    """Where a row came from.  `main()`, `sign()` and `extension()` return
    one shared instance each, so a system's rows hold no copies of them."""

    kind: str  # "main" | "sign" | "extension" | "derived"
    parents: tuple[int, ...] = ()

    @staticmethod
    def main() -> "Provenance":
        return _MAIN

    @staticmethod
    def sign() -> "Provenance":
        return _SIGN

    @staticmethod
    def extension() -> "Provenance":
        return _EXTENSION

    @staticmethod
    def derived(parents: Iterable[int]) -> "Provenance":
        return Provenance("derived", tuple(parents))


_MAIN = Provenance("main")
_SIGN = Provenance("sign")
_EXTENSION = Provenance("extension")


@dataclass(frozen=True, slots=True)
class Constraint:
    cid: int
    expr: LinearExpr
    relation: Relation
    rhs: Fraction
    provenance: Provenance = field(default_factory=Provenance.main)

    def key(self) -> tuple:
        """Structural identity ignoring id and provenance."""
        return (self.expr.terms, self.relation, self.rhs)


@dataclass(frozen=True)
class System:
    """Ordered constraints over a named variable table.

    Constraint ids are assigned by insertion order and never reused within a
    system; derived systems keep numbering from where their parent stopped, so
    elimination traces stay unambiguous.

    A system is immutable, so every question asked of it has one answer, and
    the analyses keep the costly ones in a private memo on the system, one
    entry per call kind: fourier.feasibility's verdict under
    "feasibility", cone.primal_cone under "primal_cone",
    cone.has_solution_at_infinity (read by is_bounded) under
    "has_solution_at_infinity" and pipeline.build_working_system (read by
    run and explore) under "working_system".  A call that raises stores
    nothing.  The memo takes no part in ==, hash or repr, every constructor
    (with_rows included) starts it empty, and it is freed with the system.
    Nothing stored in it refers back to the system, so it makes no
    reference cycle and a dropped system is freed at once, without the
    cycle collector.  The cone primal_cone builds keeps one entry of
    another kind in its own memo: a weak reference to its primal under
    "primal", through which cone.is_reduced_to_origin reads the primal's
    answers.  It is weak so that the primal, whose memo holds the cone,
    makes no cycle, and so that a kept cone never keeps its primal alive.

    What a system holds on to once asked: the homogenized cone (one
    System, its rows about as many as the primal's), the ray found or
    None, the working system (the strong dual's integer rows, their
    scales and the row labels, from which the dual is built as a System
    when first read) and the Fourier verdict with its witness; until its
    implicit ids are first read, that verdict also holds the elimination
    trace and the ids of the rows tight at the witness, which the read
    frees.
    """

    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...] = ()
    objective: LinearExpr | None = None
    is_cone: bool = False
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.variables)
        seen: set[int] = set()
        for c in self.constraints:
            if c.cid in seen:
                raise LincertError(f"duplicate constraint id {c.cid}")
            seen.add(c.cid)
            for v, _ in c.expr.terms:
                if not 0 <= v < n:
                    raise UnknownVariableError(f"constraint {c.cid} uses variable index {v}")

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(f"no variable named {name!r}") from None

    def constraint(self, cid: int) -> Constraint:
        for c in self.constraints:
            if c.cid == cid:
                return c
        raise UnknownConstraintError(f"no constraint with id {cid}")

    def has_constraint(self, cid: int) -> bool:
        return any(c.cid == cid for c in self.constraints)

    def ids(self) -> tuple[int, ...]:
        return tuple(c.cid for c in self.constraints)

    def next_id(self) -> int:
        return max((c.cid for c in self.constraints), default=-1) + 1

    def with_rows(self, constraints: Iterable[Constraint]) -> "System":
        return System(self.variables, tuple(constraints), self.objective, self.is_cone)

    def sign_rows(self) -> tuple[Constraint, ...]:
        return tuple(c for c in self.constraints if c.provenance.kind == "sign")

    def main_rows(self) -> tuple[Constraint, ...]:
        return tuple(c for c in self.constraints if c.provenance.kind != "sign")

    def sign_row_for(self, var: int) -> Constraint | None:
        terms = ((var, _MINUS_ONE),)
        for c in self.constraints:
            if c.provenance.kind == "sign" and c.expr.terms == terms:
                return c
        return None

    def _remember(self, key, compute: Callable[[], object]):
        """The memo's entry under key (class docstring), made by compute()
        on the first call; a compute() that raises stores nothing."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]


def sign_row(cid: int, var: int) -> Constraint:
    """The sign row -x_var <= 0 under id cid."""
    return Constraint(cid, LinearExpr(((var, _MINUS_ONE),)), Relation.LE, ZERO, Provenance.sign())


def make_system(
    variables: Iterable[str],
    mains: Iterable[tuple] = (),
    nonneg: Iterable[str] | str = (),
    objective: Mapping[str, object] | None = None,
    is_cone: bool = False,
) -> System:
    """Convenience builder used by the tests, the difftest generator and
    the implicit-equality probes; sysfile.parse builds its rows itself.

    mains: iterable of (coeffs, rel, rhs) with coeffs keyed by variable NAME,
    rel one of '<=', '<', '=' (or a Relation). nonneg: 'all' or names; each
    expands to a sign row -x <= 0.
    """
    names = tuple(variables)
    index = {n: i for i, n in enumerate(names)}
    if len(index) != len(names):
        raise LincertError("duplicate variable names")

    def expr_of(coeffs: Mapping[str, object]) -> LinearExpr:
        pairs = []
        for name, c in coeffs.items():
            if name not in index:
                raise UnknownVariableError(f"no variable named {name!r}")
            pairs.append((index[name], c))
        return LinearExpr.from_terms(pairs)

    rows: list[Constraint] = []
    cid = 0
    for coeffs, rel, rhs in mains:
        rel = rel if isinstance(rel, Relation) else Relation(rel)
        rows.append(Constraint(cid, expr_of(coeffs), rel, rat(rhs), Provenance.main()))
        cid += 1
    sign_names = names if nonneg == "all" else tuple(nonneg)
    for name in sign_names:
        if name not in index:
            raise UnknownVariableError(f"no variable named {name!r}")
        rows.append(sign_row(cid, index[name]))
        cid += 1
    obj = expr_of(objective) if objective is not None else None
    return System(names, tuple(rows), obj, is_cone)


@dataclass(frozen=True)
class MultiplierVector:
    """Nonnegative weight per constraint id; absent ids mean zero."""

    entries: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def of(weights: Mapping[int, object] | Iterable[tuple[int, object]]) -> "MultiplierVector":
        items = weights.items() if isinstance(weights, Mapping) else weights
        acc: dict[int, Fraction] = {}
        for cid, w in items:
            w = rat(w)
            if w < 0:
                raise NegativeMultiplierError(f"multiplier for constraint {cid} is negative: {w}")
            if w != 0:
                acc[cid] = acc[cid] + w if cid in acc else w
        return MultiplierVector(tuple(sorted(acc.items())))

    def get(self, cid: int) -> Fraction:
        for i, w in self.entries:
            if i == cid:
                return w
        return ZERO

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def scale(self, factor) -> "MultiplierVector":
        factor = rat(factor)
        if factor < 0:
            raise NegativeMultiplierError("multiplier vectors admit only nonnegative scaling")
        return MultiplierVector.of((i, w * factor) for i, w in self.entries)

    def __add__(self, other: "MultiplierVector") -> "MultiplierVector":
        return MultiplierVector.of(list(self.entries) + list(other.entries))


@dataclass(frozen=True)
class Point:
    """Exact variable assignment, keyed by variable index."""

    values: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def of(values: Mapping[int, object] | Iterable[tuple[int, object]]) -> "Point":
        items = values.items() if isinstance(values, Mapping) else values
        return Point(tuple(sorted((v, rat(x)) for v, x in items)))

    @staticmethod
    def from_names(system: System, values: Mapping[str, object]) -> "Point":
        return Point.of({system.var_index(n): x for n, x in values.items()})

    def value(self, var: int) -> Fraction:
        for v, x in self.values:
            if v == var:
                return x
        raise UnknownVariableError(f"point has no value for variable index {var}")


def integer_row(c: Constraint, nvars: int) -> tuple[list[int], int, int]:
    """(coefficients, rhs, den): the row times den, the lcm of its
    denominators, as a dense integer vector over nvars variables."""
    den = lcm(c.rhs.denominator, *(a.denominator for _, a in c.expr.terms))
    coeffs = [0] * nvars
    for v, a in c.expr.terms:
        coeffs[v] = a.numerator * (den // a.denominator)
    return coeffs, c.rhs.numerator * (den // c.rhs.denominator), den


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


def interval_of(rows: Iterable[tuple]) -> Interval:
    """The solution set of one variable l under rows a*l <= rhs (a*l < rhs
    when strict), given as (a, rhs, strict) triples of ints or Fractions.

    Each bound rhs/a is kept as its pair (rhs, a) and compared by cross
    multiplication, so no Fraction is built per row: with the upper bound
    H/h so far (h > 0), a row with a > 0 is tighter iff rhs*h < H*a, and
    with the lower bound L/l (l < 0), a row with a < 0 is tighter iff
    rhs*l > L*a.  A tie goes to the strict row, in either order.  Only the
    winning lo and hi become Fractions."""
    lo = hi = None  # (rhs, a) of the bound so far
    lo_open = hi_open = False
    empty = False
    for a, rhs, strict in rows:
        if a == 0:
            if rhs < 0 or (strict and rhs == 0):
                empty = True
            continue
        if a > 0:
            if hi is None or (side := rhs * hi[1] - hi[0] * a) < 0 or (side == 0 and strict):
                hi, hi_open = (rhs, a), strict
        else:
            if lo is None or (side := rhs * lo[1] - lo[0] * a) > 0 or (side == 0 and strict):
                lo, lo_open = (rhs, a), strict
    if lo is not None and hi is not None:
        # lo > hi iff L/l > H/h iff L*h < H*l, as l*h < 0
        side = lo[0] * hi[1] - hi[0] * lo[1]
        if side < 0 or (side == 0 and (lo_open or hi_open)):
            empty = True
    if empty:
        return Interval(empty=True)
    return Interval(
        False,
        None if lo is None else Fraction(*lo),
        lo_open,
        None if hi is None else Fraction(*hi),
        hi_open,
    )


def _combination(system: System, lam: MultiplierVector) -> tuple[dict[int, int], int, int, bool]:
    """sum(w_i * row_i) on integers: (coefficient sums, rhs sum, den,
    strict), the combination being the sums over den.

    Each row is taken times the lcm of its denominators, so its weight
    becomes w_i over that lcm, and den is the lcm of those scaled weights'
    denominators.  Strict iff a strict row carries a positive weight: a
    strict row listed at weight 0 adds nothing to the sum.  Raises as
    combine does, on the first offending entry."""
    by_id = {c.cid: c for c in system.constraints}
    scaled = []
    strict = False
    for cid, w in lam.entries:
        if w < 0:
            raise NegativeMultiplierError(f"multiplier for constraint {cid} is negative")
        row = by_id.get(cid)
        if row is None:
            raise UnknownConstraintError(f"no constraint with id {cid}")
        if row.relation is Relation.EQ:
            raise RelationError(
                f"constraint {cid} is an equality; expand it to inequality form first"
            )
        w = rat(w)
        row_den = lcm(row.rhs.denominator, *(a.denominator for _, a in row.expr.terms))
        scaled.append((row, row_den, w.numerator, w.denominator * row_den))
        if row.relation is Relation.LT and w:
            strict = True
    den = lcm(*(w_den for *_, w_den in scaled))
    sums: dict[int, int] = {}
    rhs = 0
    for row, row_den, w_num, w_den in scaled:
        m = w_num * (den // w_den)
        if not m:
            continue
        for v, a in row.expr.terms:
            sums[v] = sums.get(v, 0) + m * a.numerator * (row_den // a.denominator)
        rhs += m * row.rhs.numerator * (row_den // row.rhs.denominator)
    return sums, rhs, den, strict


def combine(system: System, lam: MultiplierVector) -> Constraint:
    """Nonnegative combination sum(w_i * row_i) of inequality rows, one
    Fraction per nonzero entry built from _combination's integer sums.

    The result relation is strict iff a strict row carries a positive
    weight; only a directly built MultiplierVector lists a row with weight
    zero, and such a row makes no sum strict.
    """
    sums, rhs, den, strict = _combination(system, lam)
    expr = LinearExpr(tuple(sorted((v, Fraction(s, den)) for v, s in sums.items() if s)))
    rel = Relation.LT if strict else Relation.LE
    return Constraint(-1, expr, rel, Fraction(rhs, den), Provenance.derived(sorted(lam.ids())))


def evaluate(constraint: Constraint, point: Point) -> bool:
    """Exact satisfaction of one constraint at one point."""
    return constraint.relation.holds(constraint.expr.value_at(point), constraint.rhs)


def is_zero_row(constraint: Constraint) -> RowClass:
    """Classify a row as tautology / contradiction / informative.

    Only rows with the all-zero left side can be tautologies or
    contradictions; everything else is informative.
    """
    if not constraint.expr.is_zero:
        return RowClass.INFORMATIVE
    if constraint.relation.holds(ZERO, constraint.rhs):
        return RowClass.TAUTOLOGY
    return RowClass.CONTRADICTION


def check_multiplier_certificate(system: System, lam: MultiplierVector) -> bool:
    """True iff the weighted rows sum to the zero form with zero right side.

    Such a vector certifies that every positively weighted row is an implicit
    equality.  The all-zero vector passes trivially; callers that need a
    nontrivial certificate must additionally require lam != 0.
    """
    sums, rhs, _, _ = _combination(system, lam)
    return rhs == 0 and not any(sums.values())


def expand_equalities(system: System) -> System:
    """Replace each equality row by the pair {L <= r, -L <= -r}.

    The two replacement rows carry derived provenance pointing at the original
    id, so certificates over the expanded system can be traced back.
    """
    rows: list[Constraint] = []
    cid = system.next_id()
    for c in system.constraints:
        if c.relation is not Relation.EQ:
            rows.append(c)
            continue
        rows.append(Constraint(cid, c.expr, Relation.LE, c.rhs, Provenance.derived((c.cid,))))
        cid += 1
        rows.append(Constraint(cid, -c.expr, Relation.LE, -c.rhs, Provenance.derived((c.cid,))))
        cid += 1
    return system.with_rows(rows)


def validate_standard_shape(system: System) -> tuple[tuple[Constraint, ...], tuple[Constraint, ...]]:
    """Check AX <= b plus one sign row -x_j <= 0 per variable.

    Returns (main rows, sign rows in variable order).  Raises ShapeError with
    the full list of offending rows / missing sign constraints.
    """
    problems = []
    sign_for: dict[int, Constraint] = {}
    mains = []
    for c in system.constraints:
        if c.relation is not Relation.LE:
            problems.append(f"constraint {c.cid} has relation {c.relation.value!r}, expected '<='")
            continue
        if c.provenance.kind == "sign":
            terms = c.expr.terms
            if len(terms) != 1 or terms[0][1] != -1 or c.rhs != 0:
                problems.append(f"constraint {c.cid} is marked as a sign row but is not -x <= 0")
                continue
            var = terms[0][0]
            if var in sign_for:
                problems.append(f"variable {system.variables[var]!r} has two sign rows")
            sign_for[var] = c
        else:
            mains.append(c)
    missing = [system.variables[v] for v in range(len(system.variables)) if v not in sign_for]
    if missing:
        problems.append("missing sign constraints for: " + ", ".join(missing))
    if problems:
        raise ShapeError("; ".join(problems))
    signs = tuple(sign_for[v] for v in range(len(system.variables)))
    return tuple(mains), signs
