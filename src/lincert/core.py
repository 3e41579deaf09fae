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
from typing import Iterable, Mapping

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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


def rat(value, den=None) -> Fraction:
    """Exact rational from ints, Fractions, or 'p/q' strings. Floats are refused."""
    if isinstance(value, float) or isinstance(den, float):
        raise TypeError("floats are not exact; pass ints, Fractions, or 'p/q' strings")
    if den is not None:
        return Fraction(value) / Fraction(den)
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


@dataclass(frozen=True)
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
                acc[var] = acc.get(var, ZERO) + c
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


@dataclass(frozen=True)
class Provenance:
    kind: str  # "main" | "sign" | "extension" | "derived"
    parents: tuple[int, ...] = ()

    @staticmethod
    def main() -> "Provenance":
        return Provenance("main")

    @staticmethod
    def sign() -> "Provenance":
        return Provenance("sign")

    @staticmethod
    def extension() -> "Provenance":
        return Provenance("extension")

    @staticmethod
    def derived(parents: Iterable[int]) -> "Provenance":
        return Provenance("derived", tuple(parents))


@dataclass(frozen=True)
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
    """

    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...] = ()
    objective: LinearExpr | None = None
    is_cone: bool = False

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
        for c in self.constraints:
            if c.provenance.kind == "sign" and c.expr.terms == ((var, Fraction(-1)),):
                return c
        return None


def make_system(
    variables: Iterable[str],
    mains: Iterable[tuple] = (),
    nonneg: Iterable[str] | str = (),
    objective: Mapping[str, object] | None = None,
    is_cone: bool = False,
) -> System:
    """Convenience builder used heavily in tests and the file parser.

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
        expr = LinearExpr.from_terms({index[name]: -1})
        rows.append(Constraint(cid, expr, Relation.LE, ZERO, Provenance.sign()))
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
                acc[cid] = acc.get(cid, ZERO) + w
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

    def has(self, var: int) -> bool:
        return any(v == var for v, _ in self.values)


def combine(system: System, lam: MultiplierVector) -> Constraint:
    """Nonnegative combination sum(w_i * row_i) of inequality rows.

    The result relation is strict iff a strict row carries positive weight.
    """
    expr = LinearExpr()
    rhs = ZERO
    strict = False
    parents = []
    for cid, w in lam.entries:
        if w < 0:
            raise NegativeMultiplierError(f"multiplier for constraint {cid} is negative")
        row = system.constraint(cid)
        if row.relation is Relation.EQ:
            raise RelationError(
                f"constraint {cid} is an equality; expand it to inequality form first"
            )
        expr = expr + row.expr.scale(w)
        rhs += row.rhs * w
        if row.relation is Relation.LT:
            strict = True
        parents.append(cid)
    rel = Relation.LT if strict else Relation.LE
    return Constraint(-1, expr, rel, rhs, Provenance.derived(sorted(parents)))


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
    combined = combine(system, lam)
    return combined.expr.is_zero and combined.rhs == 0


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
