"""Gaussian substitution-elimination with multiplier bookkeeping.

Setting a pivot row a0*x0 + L0 <= r0 to equality substitutes
x0 = (r0 - L0)/a0 into every other row.  On a cone this is the classic
single-pivot step; unlike Fourier pairing it can create "parasite"
multipliers: weightings valid on the new system that do not lift back to the
old one.  The transfer table scales weights by each row's |coefficient| on
x0, the eliminated variable's sign row turns into a main row carrying its old
weight, and the reversal formula

    |a0| * mu_pivot = -sum(same-sign weights) + sum(opposite weights)
                      + sign(a0) * promoted-row weight

recovers the pivot's weight.  A negative reconstruction is exactly the
parasite case, and rearranging the identity then exhibits the pivot row as a
nonnegative combination of the others (the pivot was redundant).

Transformed rows keep their constraint ids (the pivot's id disappears), so
multiplier vectors on the old and new systems share a key space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Constraint,
    InvariantError,
    LincertError,
    LinearExpr,
    MultiplierVector,
    NonHomogeneousError,
    Provenance,
    Relation,
    RelationError,
    System,
    ZERO,
    check_multiplier_certificate,
)


class PivotError(LincertError):
    pass


@dataclass(frozen=True)
class PivotClassification:
    system: System
    var: int
    pivot_id: int
    pivot_scale: Fraction             # |a0| > 0
    pivot_sign: int                   # sign of a0
    same_sign: tuple[int, ...]        # rows whose x0 coefficient matches sign(a0)
    opposite: tuple[int, ...]
    free: tuple[int, ...]             # non-sign rows without x0
    var_sign_id: int | None           # the -x0 <= 0 row, when present
    other_signs: tuple[int, ...]
    scales: tuple[tuple[int, Fraction], ...]  # |x0 coefficient| per grouped row

    def scale_of(self, cid: int) -> Fraction:
        for i, s in self.scales:
            if i == cid:
                return s
        raise LincertError(f"constraint {cid} carries no scale factor")


@dataclass(frozen=True)
class SubstitutionRecord:
    var: int
    pivot_id: int
    substitution: LinearExpr          # x0 = substitution + constant
    constant: Fraction
    new_to_old: tuple[tuple[int, int], ...]  # ids are stable; promoted row keeps its sign-row id
    classification: PivotClassification


@dataclass(frozen=True)
class ReversalResult:
    legitimate: bool
    multipliers: MultiplierVector | None  # reconstructed old-system vector when legitimate
    pivot_weight: Fraction                # may be negative (the parasite signal)


def classify(system: System, var: int, pivot_id: int, homogeneous: bool = True) -> PivotClassification:
    """Group rows around a pivot for substitution-elimination of `var`.

    Requires a usable pivot: nonzero coefficient on `var` and a remainder
    that is not the zero form (a bare a*x0 <= 0 row just pins the variable;
    callers handle that case their own way).
    """
    pivot = system.constraint(pivot_id)
    for c in system.constraints:
        if c.relation is not Relation.LE:
            raise RelationError(f"constraint {c.cid} has relation {c.relation.value!r}; expected '<='")
        if homogeneous and c.rhs != 0:
            raise NonHomogeneousError(f"constraint {c.cid} has nonzero right side {c.rhs}")
    a0 = pivot.expr.coeff(var)
    if a0 == 0:
        raise PivotError(f"pivot row {pivot_id} has no {system.variables[var]!r} term")
    if homogeneous and pivot.expr.drop(var).is_zero:
        raise PivotError(f"pivot row {pivot_id} has zero remainder; it only pins the variable")

    same, opp, free, others = [], [], [], []
    var_sign_id = None
    scales = []
    for c in system.constraints:
        if c.cid == pivot_id:
            continue
        if c.provenance.kind == "sign":
            if c.expr.coeff(var) != 0:
                var_sign_id = c.cid
            else:
                others.append(c.cid)
            continue
        a = c.expr.coeff(var)
        if a == 0:
            free.append(c.cid)
        elif (a > 0) == (a0 > 0):
            same.append(c.cid)
            scales.append((c.cid, abs(a)))
        else:
            opp.append(c.cid)
            scales.append((c.cid, abs(a)))
    return PivotClassification(
        system=system,
        var=var,
        pivot_id=pivot_id,
        pivot_scale=abs(a0),
        pivot_sign=1 if a0 > 0 else -1,
        same_sign=tuple(same),
        opposite=tuple(opp),
        free=tuple(free),
        var_sign_id=var_sign_id,
        other_signs=tuple(others),
        scales=tuple(scales),
    )


def substitute_through(system: System, var: int, pivot_id: int, homogeneous: bool = False):
    """Substitute var out through the pivot-set-to-equality; general right sides.

    Rows with the variable are emitted in the scaled form
        -+ (1/a0)(L0 - r0-part) + (1/|a|)(L - r-part) <= ...
    matching the transfer table; rows without it pass through unchanged; the
    variable's sign row becomes the main row (1/a0)L0 <= (1/a0)r0.
    """
    cls = classify(system, var, pivot_id, homogeneous=homogeneous)
    pivot = system.constraint(pivot_id)
    a0 = cls.pivot_scale * cls.pivot_sign
    l0 = pivot.expr.drop(var)
    r0 = pivot.rhs

    rows = []
    id_map = []
    for c in system.constraints:
        if c.cid == pivot_id:
            continue
        a = c.expr.coeff(var)
        if a == 0:
            rows.append(c)
            id_map.append((c.cid, c.cid))
            continue
        if c.cid == cls.var_sign_id:
            expr = l0.scale(1 / a0)
            rhs = r0 / a0
        else:
            s = 1 if a > 0 else -1
            expr = c.expr.drop(var).scale(1 / abs(a)) - l0.scale(Fraction(s, 1) / a0)
            rhs = c.rhs / abs(a) - r0 * s / a0
        rows.append(Constraint(c.cid, expr, c.relation, rhs, Provenance.derived((c.cid, pivot_id))))
        id_map.append((c.cid, c.cid))
    new_system = system.with_rows(rows)
    record = SubstitutionRecord(
        var=var,
        pivot_id=pivot_id,
        substitution=l0.scale(Fraction(-1) / a0),
        constant=r0 / a0,
        new_to_old=tuple(id_map),
        classification=cls,
    )
    return new_system, record


def substitute_eliminate(system: System, var: int, pivot_id: int):
    """Homogeneous-cone variant of substitute_through (the classic setting)."""
    return substitute_through(system, var, pivot_id, homogeneous=True)


def transfer_multipliers(cls: PivotClassification, mu: MultiplierVector) -> MultiplierVector:
    """Push a valid certificate through the substitution.

    Same-sign and opposite rows pick up their |coefficient| as a factor, free
    rows and untouched sign rows keep their weights, and the promoted row
    inherits the sign row's weight unscaled.  The pivot's weight is dropped;
    reverse_multipliers recovers it.
    """
    if not check_multiplier_certificate(cls.system, mu):
        raise LincertError("multipliers are not a valid certificate on the source system")
    weights: dict[int, Fraction] = {}
    for cid in cls.same_sign + cls.opposite:
        weights[cid] = mu.get(cid) * cls.scale_of(cid)
    for cid in cls.free + cls.other_signs:
        weights[cid] = mu.get(cid)
    if cls.var_sign_id is not None:
        weights[cls.var_sign_id] = mu.get(cls.var_sign_id)
    return MultiplierVector.of(weights)


def _reconstruct(cls: PivotClassification, mu_new: MultiplierVector):
    promoted = mu_new.get(cls.var_sign_id) if cls.var_sign_id is not None else ZERO
    pivot_weight = (
        -sum((mu_new.get(cid) for cid in cls.same_sign), ZERO)
        + sum((mu_new.get(cid) for cid in cls.opposite), ZERO)
        + cls.pivot_sign * promoted
    ) / cls.pivot_scale
    weights: dict[int, Fraction] = {cls.pivot_id: pivot_weight}
    for cid in cls.same_sign + cls.opposite:
        weights[cid] = mu_new.get(cid) / cls.scale_of(cid)
    for cid in cls.free + cls.other_signs:
        weights[cid] = mu_new.get(cid)
    if cls.var_sign_id is not None:
        weights[cls.var_sign_id] = promoted
    return pivot_weight, weights


def reverse_multipliers(cls: PivotClassification, mu_new: MultiplierVector) -> ReversalResult:
    """Lift a certificate on the substituted system back, or report Parasite.

    Legitimate means the reconstructed pivot weight is nonnegative and the
    full reconstructed vector certifies on the source system; anything else
    is a parasite weighting (and a redundancy witness for the pivot row when
    the reconstructed weight is negative).
    """
    new_system, _ = substitute_through(
        cls.system, cls.var, cls.pivot_id, homogeneous=False
    )
    if not check_multiplier_certificate(new_system, mu_new):
        raise LincertError("multipliers are not a valid certificate on the substituted system")
    pivot_weight, weights = _reconstruct(cls, mu_new)
    if pivot_weight < 0:
        return ReversalResult(False, None, pivot_weight)
    lifted = MultiplierVector.of(weights)
    if not check_multiplier_certificate(cls.system, lifted):
        return ReversalResult(False, None, pivot_weight)  # pragma: no cover
    return ReversalResult(True, lifted, pivot_weight)


def redundancy_witness(cls: PivotClassification, mu_new: MultiplierVector) -> MultiplierVector | None:
    """For a parasite weighting, express the pivot row as a nonnegative
    combination of the other rows; None when no rearrangement applies."""
    result = reverse_multipliers(cls, mu_new)
    if result.legitimate:
        raise LincertError("pivot row is not redundant: the multipliers lift back")
    if result.pivot_weight >= 0:
        return None  # pragma: no cover
    _, weights = _reconstruct(cls, mu_new)
    scale = -result.pivot_weight
    witness = MultiplierVector.of(
        {cid: w / scale for cid, w in weights.items() if cid != cls.pivot_id}
    )
    pivot = cls.system.constraint(cls.pivot_id)
    total = LinearExpr()
    rhs = ZERO
    for cid, w in witness.entries:
        row = cls.system.constraint(cid)
        total = total + row.expr.scale(w)
        rhs += row.rhs * w
    if total != pivot.expr or rhs != pivot.rhs:
        raise InvariantError("redundancy witness failed verification")  # pragma: no cover
    return witness
