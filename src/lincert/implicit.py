"""Implicit-equality detection with multiplier certificates.

An inequality row is an implicit equality when every feasible point satisfies
it with equality.  The decision procedure replaces the row's <= by < and asks
the elimination oracle; infeasibility of the strict variant is exactly the
implicit-equality condition, and the resulting contradiction certificate is a
nonnegative multiplier vector summing the ORIGINAL rows to [0] with zero right
side and positive weight on the target row.

One certificate settles many rows at once.  Let the system be feasible at
x*, and let lam refute a variant in which some <= rows are made strict: lam
sums the left sides to [0] and the right sides to some r, with r < 0, or
r <= 0 when a strict row carries weight.  Since the left sides cancel, r is
the sum of lam_i * (b_i - a_i x*), and every term is >= 0 because x*
satisfies the original rows.  So r = 0 and every term is zero: each row lam
weights is tight at x*.  As x* was any feasible point, every weighted row is
an implicit equality, lam weights no row that is strict in the input (such
a row has slack at x*), and lam sums the original rows to [0] <= 0.
implicit_set builds on this.
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
    """Every implicit equality among the <= rows, with one joint certificate.

    Keeps an open set of the <= rows not yet known to be implicit and probes
    the system with every open row strict.  A feasible probe shows that no
    open row is implicit.  An infeasible one yields a certificate lam.  The
    system is feasible at some x*, so sum(lam_i * (b_i - a_i x*)) = 0 with
    every term >= 0 (module docstring): every row lam weights is tight at
    every feasible point, lam weights no input strict row, and it must weight
    at least one open row, or rows that all hold at x* would refute the
    probe.  Those rows leave the open set and lam joins the joint
    certificate, a sum of per-round certificates that is positive on every
    reported row.  After the base check that is one probe per round plus at
    most one feasible probe, not one per row.  Infeasible input yields
    feasible=False and an empty set instead of an error."""
    for c in system.constraints:
        if c.relation is Relation.EQ:
            raise RelationError(f"constraint {c.cid} is an equality; expand it first")
    if not feasibility(system, order="greedy").feasible:
        return ImplicitReport(False, frozenset(), MultiplierVector())
    # A strict input row can never hold with equality.
    open_ids = {c.cid for c in system.constraints if c.relation is Relation.LE}
    ids: set[int] = set()
    joint = MultiplierVector()
    while open_ids:
        probe = system.with_rows(
            Constraint(c.cid, c.expr, Relation.LT, c.rhs, c.provenance) if c.cid in open_ids else c
            for c in system.constraints
        )
        verdict = feasibility(probe, order="greedy")
        if verdict.feasible:
            break
        lam = verdict.certificate
        moved = open_ids.intersection(lam.ids())
        if not moved or not check_multiplier_certificate(system, lam):
            raise InvariantError("strict-probe certificate failed verification")  # pragma: no cover
        open_ids -= moved
        ids |= moved
        joint = joint + lam
    return ImplicitReport(True, frozenset(ids), joint)


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
    verdict = feasibility(make_system(names, mains=probe, nonneg="all"), order="greedy")
    if not verdict.feasible:
        return False, None
    lam = MultiplierVector.of({rows[j].cid: verdict.witness.value(j) for j in range(len(rows))})
    if lam.is_zero or not check_multiplier_certificate(system, lam):
        raise InvariantError("multiplier-cone witness failed verification")  # pragma: no cover
    return True, lam
