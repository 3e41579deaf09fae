"""Gaussian substitution-elimination with multiplier bookkeeping.

Setting a pivot row a0*x0 + L0 <= r0 to equality substitutes
x0 = (r0 - L0)/a0 into every other row.  On a cone this is the classic
single-pivot step; unlike Fourier pairing it can create "parasite"
multipliers: weightings valid on the new system that do not lift back to the
old one.  Everything the certificate side needs is the pivot column, each
row's coefficient a_i on x0.  A row that mentions x0 becomes
(row_i - (a_i/a0)*pivot) / |a_i|, so a weighting mu transfers as
mu'_i = |a_i| * mu_i on every row that mentions x0 (the sign row -x0 <= 0
keeps its weight) and mu'_i = mu_i on the rest.  The new weighted sum is
then sum(mu_i * row_i) over the other rows plus the pivot weighted
-sum(a_i * mu_i) / a0, so the lift back is mu_i = mu'_i / |a_i| with the
pivot's weight from the column balance

    a0 * mu_pivot + sum(a_i * mu_i) = 0,

for any right sides and for a pivot that only pins x0.  A negative mu_pivot
is exactly the parasite case, and the balance then exhibits the pivot row as
a nonnegative combination of the others (the pivot was redundant).

The substitution itself runs once, on integer rows, in the fraction-free
style of Bareiss (1968).  Each row is held as a positive integer multiple R
of its `Fraction` row; with A and A0 the coefficients of x0 on R and on the
pivot's integer row P,

    N = |A0|*R - A*sign(A0)*P

has no x0 term, and N / (|A|*|A0|) is exactly the row the Fraction formula
below emits: the scales of R and P cancel.  `pivot_integer_rows` computes N
and keeps it divided by its gcd g, so the rewritten `Fraction` row is that
coprime row times its new scale g / (|A|*|A0|), whatever the scales of R
and P were; it keeps the scales when asked.  `fraction_row` turns an
integer row and its scale into the `Fraction` row: `substitute_through`
builds its rewritten rows with it, and the pipeline its working, step and
terminal systems, from the integer states its run keeps.  `classify` records
the pivot column for the certificate side: `transfer_multipliers`,
`reverse_multipliers` and `redundancy_witness` work from it.  Transformed
rows keep their constraint ids (the pivot's id disappears), so multiplier
vectors on the old and new systems share a key space.
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
    MultiplierVector,
    Provenance,
    Relation,
    RelationError,
    System,
    check_multiplier_certificate,
    combine,
    integer_row,
)


class PivotError(LincertError):
    pass


@dataclass(frozen=True)
class PivotClassification:
    system: System
    var: int
    pivot_id: int
    column: tuple[tuple[int, Fraction], ...]  # (cid, coefficient on var) per row, in system order


@dataclass(frozen=True)
class ReversalResult:
    legitimate: bool
    multipliers: MultiplierVector | None  # reconstructed old-system vector when legitimate
    pivot_weight: Fraction                # may be negative (the parasite signal)


def _checked_pivot(system: System, var: int, pivot_id: int) -> Constraint:
    """The pivot row, once every row is '<=' and the pivot mentions var."""
    pivot = system.constraint(pivot_id)
    for c in system.constraints:
        if c.relation is not Relation.LE:
            raise RelationError(f"constraint {c.cid} has relation {c.relation.value!r}; expected '<='")
    if pivot.expr.coeff(var) == 0:
        raise PivotError(f"pivot row {pivot_id} has no {system.variables[var]!r} term")
    return pivot


def classify(system: System, var: int, pivot_id: int) -> PivotClassification:
    """The pivot column of substitution-elimination of `var` through
    `pivot_id`, checked as `substitute_through` checks its input."""
    _checked_pivot(system, var, pivot_id)
    column = tuple((c.cid, c.expr.coeff(var)) for c in system.constraints)
    return PivotClassification(system, var, pivot_id, column)


def integer_rows(system: System) -> tuple:
    """The rows of `system` as (cid, coefficients, rhs, pivotable), in
    system order: the coefficients are a dense tuple over the variables
    and, with rhs, the coprime integer positive multiple of the row
    (`core.integer_row` divided by its gcd).  Every row must be '<='.
    Sign and extension rows are not pivotable."""
    rows = []
    nvars = len(system.variables)
    for c in system.constraints:
        if c.relation is not Relation.LE:
            raise RelationError(f"constraint {c.cid} has relation {c.relation.value!r}; expected '<='")
        coeffs, rhs, _ = integer_row(c, nvars)
        g = gcd(*coeffs, rhs)
        if g > 1:
            coeffs = [x // g for x in coeffs]
            rhs //= g
        pivotable = c.provenance.kind not in ("sign", "extension")
        rows.append((c.cid, tuple(coeffs), rhs, pivotable))
    return tuple(rows)


def pivot_integer_rows(rows: tuple, p: int, var: int, scales: list | None = None) -> tuple:
    """Substitute `var` out through integer row p set to equality.

    Row p is dropped, rows without `var` pass through as the same objects,
    and every other row becomes N = |a0|*row - a*sign(a0)*pivot divided by
    its gcd g, pivotable.  `scales`, when given, is a list of the rows'
    scales, each (num, den) with num/den the factor that turns the integer
    row into its `Fraction` row, and is updated in place to the new rows'
    scales: a rewritten row's `Fraction` row is N / (|a|*|a0|) whatever
    the old scales were (module docstring), so its scale is (g, |a|*|a0|);
    every other row keeps its own."""
    _, pivot, pivot_rhs, _ = rows[p]
    a0 = pivot[var]
    m0 = abs(a0)
    s0 = 1 if a0 > 0 else -1
    out = []
    for i, row in enumerate(rows):
        if i == p:
            continue
        cid, coeffs, rhs, _ = row
        a = coeffs[var]
        if not a:
            out.append(row)
            continue
        f = a * s0
        new = [m0 * x - f * y for x, y in zip(coeffs, pivot)]
        new_rhs = m0 * rhs - f * pivot_rhs
        g = gcd(*new, new_rhs)
        if scales is not None:
            scales[i] = (g, m0 * abs(a))
        if g > 1:
            new = [x // g for x in new]
            new_rhs //= g
        out.append((cid, tuple(new), new_rhs, True))
    if scales is not None:
        del scales[p]
    return tuple(out)


def fraction_row(row: tuple, scale: tuple[int, int], provenance: Provenance) -> Constraint:
    """The `Fraction` row of integer row `row` ((cid, coefficients, rhs,
    pivotable), `integer_rows`' form) times its scale (num, den): one
    `Fraction` per nonzero entry, with `provenance`."""
    cid, coeffs, rhs, _ = row
    num, den = scale
    expr = LinearExpr(tuple((v, Fraction(x * num, den)) for v, x in enumerate(coeffs) if x))
    return Constraint(cid, expr, Relation.LE, Fraction(rhs * num, den), provenance)


def substitute_through(system: System, var: int, pivot_id: int) -> System:
    """Substitute var out through the pivot row set to equality.

    Each other row a*x0 + L <= r with a != 0 becomes
        (1/|a|)L - (sign(a)/a0)L0 <= r/|a| - sign(a)*r0/a0,
    the substituted row divided by |a|, as transfer_multipliers assumes.  The
    variable's sign row -x0 <= 0 thereby becomes the main row
    (1/a0)L0 <= r0/a0.  Rows without x0 pass through unchanged and every row
    keeps its id.  Right sides may be nonzero.  Only what the substitution
    needs is checked: every row is '<=' and the pivot mentions x0; `classify`
    records the pivot column for the certificate side.

    The rows are computed on integer rows: with R and P the coprime integer
    rows of a row and of the pivot, and A, A0 their x0 coefficients, the row
    above is exactly N / (|A|*|A0|), N = |A0|*R - A*sign(A0)*P, which is the
    coprime row `pivot_integer_rows` returns times the scale it gives.
    """
    pivot = _checked_pivot(system, var, pivot_id)
    p = system.constraints.index(pivot)
    rows = integer_rows(system)
    scales: list = [None] * len(rows)  # stays None on a row without var
    new_rows = pivot_integer_rows(rows, p, var, scales)
    others = system.constraints[:p] + system.constraints[p + 1 :]
    return system.with_rows(
        c if scale is None else fraction_row(row, scale, Provenance.derived((row[0], pivot_id)))
        for c, row, scale in zip(others, new_rows, scales)
    )


def transfer_multipliers(cls: PivotClassification, mu: MultiplierVector) -> MultiplierVector:
    """Push a valid certificate through the substitution: each row that
    mentions the variable picks up its |coefficient| as a factor, the other
    rows keep their weights, and the pivot's weight is dropped
    (reverse_multipliers recovers it)."""
    if not check_multiplier_certificate(cls.system, mu):
        raise LincertError("multipliers are not a valid certificate on the source system")
    column = dict(cls.column)
    return MultiplierVector.of((cid, w * (abs(column[cid]) or 1)) for cid, w in mu.entries if cid != cls.pivot_id)


def _lift(cls: PivotClassification, mu_new: MultiplierVector) -> tuple[Fraction, dict[int, Fraction]]:
    """(pivot weight, the other rows' weights) on the source system for a
    certificate on the substituted system: mu_i = mu'_i / |a_i| on the rows
    that mention the variable, mu_i = mu'_i on the rest, and the pivot's
    weight from the column balance a0 * mu_p + sum(a_i * mu_i) = 0."""
    new_system = substitute_through(cls.system, cls.var, cls.pivot_id)
    if not check_multiplier_certificate(new_system, mu_new):
        raise LincertError("multipliers are not a valid certificate on the substituted system")
    column = dict(cls.column)
    weights = {cid: w / (abs(column[cid]) or 1) for cid, w in mu_new.entries}
    pivot_weight = -sum(column[cid] * w for cid, w in weights.items()) / column[cls.pivot_id]
    return pivot_weight, weights


def reverse_multipliers(cls: PivotClassification, mu_new: MultiplierVector) -> ReversalResult:
    """Lift a certificate on the substituted system back, or report Parasite.

    Legitimate means the reconstructed pivot weight is nonnegative; the
    column balance then makes the reconstructed vector a certificate on
    the source system, and a failed check is an InvariantError.  A negative
    weight is a parasite weighting and a redundancy witness for the pivot row.
    """
    pivot_weight, weights = _lift(cls, mu_new)
    if pivot_weight < 0:
        return ReversalResult(False, None, pivot_weight)
    lifted = MultiplierVector.of(weights | {cls.pivot_id: pivot_weight})
    if not check_multiplier_certificate(cls.system, lifted):
        raise InvariantError("lifted multipliers failed their check on the source system")
    return ReversalResult(True, lifted, pivot_weight)


def redundancy_witness(cls: PivotClassification, mu_new: MultiplierVector) -> MultiplierVector:
    """For a parasite weighting, express the pivot row as a nonnegative
    combination of the other rows."""
    pivot_weight, weights = _lift(cls, mu_new)
    if pivot_weight >= 0:
        raise LincertError("pivot row is not redundant: the multipliers lift back")
    witness = MultiplierVector.of({cid: w / -pivot_weight for cid, w in weights.items()})
    pivot = cls.system.constraint(cls.pivot_id)
    total = combine(cls.system, witness)
    if total.expr != pivot.expr or total.rhs != pivot.rhs:
        raise InvariantError("redundancy witness failed verification")  # pragma: no cover
    return witness
