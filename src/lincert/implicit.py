"""Implicit equalities and multiplier weightings.

An inequality row is an implicit equality when every feasible point satisfies
it with equality.  fourier.feasibility finds them from one elimination (the
rows tight at its relative-interior witness) and certifies them with a
nonnegative multiplier vector summing the rows to [0] with zero right side
and positive weight on exactly those rows; implicit_set reports both.
nonzero_multiplier_exists asks whether any such nonzero weighting exists,
on feasible and infeasible systems alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
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


def implicit_set(system: System) -> ImplicitReport:
    """Every implicit equality among the <= rows, with one joint certificate
    positive on exactly those rows, from one feasibility call (see
    fourier.feasibility).  Infeasible input yields feasible=False and an
    empty set instead of an error."""
    for c in system.constraints:
        if c.relation is Relation.EQ:
            raise RelationError(f"constraint {c.cid} is an equality; expand it first")
    verdict = feasibility(system)
    if not verdict.feasible:
        return ImplicitReport(False, frozenset(), MultiplierVector())
    return ImplicitReport(True, verdict.implicit_ids, verdict.equality_certificate)


def nonzero_multiplier_exists(system: System) -> tuple[bool, MultiplierVector | None]:
    """Does some nonzero nonnegative weighting sum the rows to [0] with zero
    right side?

    Decided by one feasibility probe on the multiplier cone: one auxiliary
    variable u_i >= 0 per row, equality rows pinning each variable's total
    coefficient and the total right side to zero, and sum(u) >= 1.  A
    nonzero point of the cone scales to one with sum(u) >= 1, so the probe
    is feasible exactly when such a weighting exists.
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

    probe = eqs + [({n: -1 for n in names}, "<=", -1)]
    verdict = feasibility(make_system(names, mains=probe, nonneg="all"))
    if not verdict.feasible:
        return False, None
    lam = MultiplierVector.of({rows[j].cid: verdict.witness.value(j) for j in range(len(rows))})
    if lam.is_zero or not check_multiplier_certificate(system, lam):
        raise InvariantError("multiplier-cone witness failed verification")  # pragma: no cover
    return True, lam
