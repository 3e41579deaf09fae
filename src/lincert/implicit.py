"""Implicit-equality detection with multiplier certificates.

An inequality row is an implicit equality when every feasible point satisfies
it with equality.  The decision procedure replaces the row's <= by < and asks
the elimination oracle; infeasibility of the strict variant is exactly the
implicit-equality condition, and the resulting contradiction certificate is a
nonnegative multiplier vector summing the ORIGINAL rows to [0] with zero right
side and positive weight on the target row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Constraint,
    InfeasibleSystemError,
    InvariantError,
    MultiplierVector,
    Relation,
    RelationError,
    System,
    check_multiplier_certificate,
    make_system,
)
from .fourier import feasibility


@dataclass(frozen=True)
class ImplicitReport:
    feasible: bool
    implicit_ids: frozenset[int]
    certificate: MultiplierVector


def strict_variant(system: System, cid: int) -> System:
    """Copy of the system with row `cid` tightened from <= to <."""
    rows = []
    for c in system.constraints:
        if c.cid == cid:
            if c.relation is not Relation.LE:
                raise RelationError(f"constraint {cid} is not a <= row")
            rows.append(Constraint(c.cid, c.expr, Relation.LT, c.rhs, c.provenance))
        else:
            rows.append(c)
    return system.with_rows(rows)


def is_implicit_equality(system: System, cid: int) -> tuple[bool, MultiplierVector | None]:
    """Decide whether row `cid` holds with equality at every feasible point.

    Requires a feasible system; the notion is undefined on empty solution
    sets (multiplier existence on infeasible systems is a separate question,
    see nonzero_multiplier_exists).  On True, returns multipliers that are
    valid on the original system and positive on the target row.
    """
    target = system.constraint(cid)
    if target.relation is not Relation.LE:
        raise RelationError(f"constraint {cid} has relation {target.relation.value!r}; expected '<='")
    if not feasibility(system, order="greedy").feasible:
        raise InfeasibleSystemError("implicit equalities are undefined on an infeasible system")
    return _probe(system, cid)


def _probe(system: System, cid: int) -> tuple[bool, MultiplierVector | None]:
    verdict = feasibility(strict_variant(system, cid), order="greedy")
    if verdict.feasible:
        return False, None
    lam = verdict.certificate
    # On a feasible base system the contradiction must lean on the strict row
    # with zero combined right side, which is exactly an equality certificate.
    if lam.get(cid) <= 0 or not check_multiplier_certificate(system, lam):
        raise InvariantError("strict-probe certificate failed verification")  # pragma: no cover
    return True, lam


def implicit_set(system: System) -> ImplicitReport:
    """Strict-probe every <= row; the joint certificate is the sum of the
    per-row certificates.  Infeasible input yields feasible=False and an
    empty set instead of an error."""
    for c in system.constraints:
        if c.relation is Relation.EQ:
            raise RelationError(f"constraint {c.cid} is an equality; expand it first")
    if not feasibility(system, order="greedy").feasible:
        return ImplicitReport(False, frozenset(), MultiplierVector())
    ids = []
    joint = MultiplierVector()
    for c in system.constraints:
        if c.relation is not Relation.LE:
            continue  # a strict row can never hold with equality
        flag, lam = _probe(system, c.cid)
        if flag:
            ids.append(c.cid)
            joint = joint + lam
    return ImplicitReport(True, frozenset(ids), joint)


def nonzero_multiplier_exists(system: System) -> tuple[bool, MultiplierVector | None]:
    """Does some nonzero nonnegative weighting sum the rows to [0] with zero
    right side?

    Decided by feasibility probes on the multiplier cone: one auxiliary
    variable per row, equality rows pinning each variable's total coefficient
    and the total right side to zero, then one probe per row asking for
    weight >= 1 there (scaling freedom makes 1 harmless).
    """
    rows = list(system.constraints)
    for c in rows:
        if c.relation is not Relation.LE:
            raise RelationError(f"constraint {c.cid} has relation {c.relation.value!r}; expected '<='")
    names = [f"u{i}" for i in range(len(rows))]
    eqs = []
    for var in range(len(system.variables)):
        coeffs = {names[i]: rows[i].expr.coeff(var) for i in range(len(rows))}
        eqs.append((coeffs, "<=", 0))
        eqs.append(({n: -c for n, c in coeffs.items()}, "<=", 0))
    rhs_coeffs = {names[i]: rows[i].rhs for i in range(len(rows))}
    eqs.append((rhs_coeffs, "<=", 0))
    eqs.append(({n: -c for n, c in rhs_coeffs.items()}, "<=", 0))

    for i in range(len(rows)):
        probe = eqs + [({names[i]: -1}, "<=", -1)]
        cone = make_system(names, mains=probe, nonneg="all")
        verdict = feasibility(cone, order="greedy")
        if verdict.feasible:
            weights = {rows[j].cid: verdict.witness.value(j) for j in range(len(rows))}
            lam = MultiplierVector.of(weights)
            if lam.is_zero or not check_multiplier_certificate(system, lam):
                raise InvariantError("multiplier-cone witness failed verification")  # pragma: no cover
            return True, lam
    return False, None
