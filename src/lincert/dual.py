"""Elementary and strong elementary duals.

For a standard-shape system AX <= b, x >= 0, the elementary dual lives over
one multiplier variable per main row: A^T L >= 0, the extension row
-sum(l_i r_i) >= 0, and l >= 0.  Rows are stored internally in <= orientation
so elimination has one code path; printing restores >=.

Feasible primal points map onto dual multiplier certificates: weight x_j on
the dual row of variable j, the slack r_i - L_i x on the sign row of l_i, and
1 on the extension; recession rays do the same with zero extension weight.
The extension's implicit-equality status therefore encodes primal
solvability.  When the extension is not implicit, the dual witness of
fourier.feasibility has positive extension slack and carries a Farkas
certificate for the primal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Constraint,
    InfeasibleSystemError,
    LincertError,
    LinearExpr,
    MultiplierVector,
    Point,
    Provenance,
    Relation,
    System,
    ZERO,
    rat,
    validate_standard_shape,
)
from .fourier import feasibility


@dataclass(frozen=True)
class ElementaryDual:
    system: System
    extension_id: int
    lambda_origin: tuple[tuple[int, int], ...]  # (lambda var index, primal main row id)
    row_origin: tuple[tuple[int, int], ...]     # (dual main row id, primal var index)

    def lambda_for_row(self, primal_cid: int) -> int:
        for var, cid in self.lambda_origin:
            if cid == primal_cid:
                return var
        raise LincertError(f"no multiplier variable for primal constraint {primal_cid}")

    def row_for_var(self, primal_var: int) -> int:
        for cid, var in self.row_origin:
            if var == primal_var:
                return cid
        raise LincertError(f"no dual row for primal variable index {primal_var}")

    def sign_id(self, lambda_var: int) -> int:
        row = self.system.sign_row_for(lambda_var)
        if row is None:
            raise LincertError(f"no sign row for multiplier variable index {lambda_var}")
        return row.cid


@dataclass(frozen=True)
class StrongElementaryDual(ElementaryDual):
    objective: LinearExpr = LinearExpr()        # over primal variable indices
    sigma: Fraction | None = None


@dataclass(frozen=True)
class ExtensionStatus:
    implicit: bool
    certificate: MultiplierVector | None = None  # implicit: positive weight on the extension
    witness: Point | None = None                 # not implicit: dual point with positive slack


def elementary_dual(primal: System) -> ElementaryDual:
    """The strong dual with a zero objective and sigma = 0: A^T L >= 0,
    -sum(l_i r_i) >= 0 and l >= 0."""
    sd = strong_elementary_dual(primal, LinearExpr(), sigma=0)
    return ElementaryDual(sd.system, sd.extension_id, sd.lambda_origin, sd.row_origin)


def strong_elementary_dual(
    primal: System, objective: LinearExpr, sigma=None
) -> StrongElementaryDual:
    """Dual rows A^T L >= c; extension -sum(l_i r_i) >= -sigma when sigma is
    given, else the symbolic mixed form over (lambda, x) variables."""
    mains, _ = validate_standard_shape(primal)
    nlam = len(mains)
    lam_names = tuple(f"l{i + 1}" for i in range(nlam))
    nvars = len(primal.variables)
    sigma = rat(sigma) if sigma is not None else None
    variables = lam_names if sigma is not None else lam_names + primal.variables
    rows = []
    row_origin = []
    for j in range(nvars):
        expr = LinearExpr.from_terms({i: -mains[i].expr.coeff(j) for i in range(nlam)})
        rows.append(Constraint(j, expr, Relation.LE, -objective.coeff(j), Provenance.main()))
        row_origin.append((j, j))
    ext_id = nvars
    ext_terms = {i: mains[i].rhs for i in range(nlam)}
    if sigma is not None:
        rows.append(Constraint(ext_id, LinearExpr.from_terms(ext_terms), Relation.LE, sigma, Provenance.extension()))
    else:
        mixed = dict(ext_terms)
        for j, c in objective.terms:
            mixed[nlam + j] = -c
        rows.append(Constraint(ext_id, LinearExpr.from_terms(mixed), Relation.LE, ZERO, Provenance.extension()))
    for i in range(nlam):
        rows.append(
            Constraint(ext_id + 1 + i, LinearExpr.from_terms({i: -1}), Relation.LE, ZERO, Provenance.sign())
        )
    system = System(variables, tuple(rows))
    origin = tuple((i, mains[i].cid) for i in range(nlam))
    return StrongElementaryDual(system, ext_id, origin, tuple(row_origin), objective, sigma)


def extension_status(dual: ElementaryDual) -> ExtensionStatus:
    """Implicit-equality status of the extension row, with evidence, from
    one table-order feasibility call.

    Implicit: the joint equality certificate, positive on the extension (the
    primal is solvable).  Not implicit: the dual witness, a relative-interior
    point, so its extension slack is strictly positive (a Farkas certificate
    for the primal, up to orientation).
    """
    verdict = feasibility(dual.system)
    if not verdict.feasible:
        raise InfeasibleSystemError("implicit equalities are undefined on an infeasible dual")
    if dual.extension_id in verdict.implicit_ids:
        return ExtensionStatus(True, certificate=verdict.equality_certificate)
    return ExtensionStatus(False, witness=verdict.witness)


def multipliers_from_primal_solution(
    primal: System, dual: ElementaryDual, x: Point, at_infinity: bool = False
) -> MultiplierVector:
    """Map a primal solution (or recession ray) to dual multipliers.

    Solution: weight x_j on the dual row of variable j, slack r_i - L_i x on
    the sign row of l_i, and 1 on the extension.  Ray (at_infinity=True):
    right-hand sides are treated as zero and the extension weight is 0.
    """
    mains, signs = validate_standard_shape(primal)
    weights: dict[int, Fraction] = {}
    for j in range(len(primal.variables)):
        value = x.value(j)
        if value < 0:
            raise LincertError(f"point violates the sign constraint on {primal.variables[j]!r}")
        weights[dual.row_for_var(j)] = value
    for i, row in enumerate(mains):
        rhs = ZERO if at_infinity else row.rhs
        slack = rhs - row.expr.value_at(x)
        if slack < 0:
            kind = "recession form" if at_infinity else "constraint"
            raise LincertError(f"point violates {kind} {row.cid}")
        weights[dual.sign_id(dual.lambda_for_row(row.cid))] = slack
    if not at_infinity:
        weights[dual.extension_id] = Fraction(1)
    return MultiplierVector.of(weights)


def combined_with_primal(primal: System, strong: StrongElementaryDual) -> System:
    """One system over (lambda..., x...) holding the primal rows and the
    symbolic strong dual rows together."""
    if strong.sigma is not None:
        raise LincertError("only the symbolic strong dual can be combined with its primal")
    nlam = len(strong.lambda_origin)
    rows = list(strong.system.constraints)
    cid = strong.system.next_id()
    for c in primal.constraints:
        expr = LinearExpr.from_terms({nlam + v: coeff for v, coeff in c.expr.terms})
        rows.append(Constraint(cid, expr, c.relation, c.rhs, c.provenance))
        cid += 1
    return System(strong.system.variables, tuple(rows))
