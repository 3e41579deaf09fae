"""Primal cones, recession rays, and dimension dichotomies.

Homogenizing AX <= b with a fresh sign-constrained variable z (column -b,
right-hand sides zeroed) gives the primal cone.  A cone point (x, z) of a
standard-shape primal has x >= 0, z >= 0 and Ax <= bz: with z > 0, x/z
solves the primal (dehomogenize), and with z = 0 and x != 0, x is a
solution at infinity (a nonzero ray of the recession cone).  So the cone
is the origin alone exactly when the primal is unsolvable and bounded;
that fact drives both the test suite and the solvability pipeline.  Full
dimension is read off the implicit equalities of one elimination
(fourier.feasibility).

is_reduced_to_origin answers from that equivalence while the primal the
cone was built from is alive, reading the primal's Fourier verdict and its
ray search, which analyses of the primal have often already asked.  A cone
with no primal (read from a file flagged `cone`, a copy made with
with_rows, or one whose primal is gone) gets its own probe instead.

Boundedness and that probe are settled without elimination when capping
rows cover every variable: for x >= 0 with Ax <= 0, a sum y'A of rows with
no negative coefficient that is positive on every variable gives
0 >= y'Ax = sum_j (A'y)_j x_j >= 0, so x = 0.  Only otherwise does a
Fourier probe run.

Each system is immutable, so primal_cone and has_solution_at_infinity (and
with it is_bounded) keep their answer in the system's memo (core.System),
keyed "primal_cone" and "has_solution_at_infinity", and fourier.feasibility
keeps its verdict there too: is_full_dimensional after implicit_set,
or pipeline.run after is_bounded and primal_cone on the same system, repeats
no elimination.  The ray a search returns never refers back to the system,
and the cone a PrimalCone holds refers to its primal only weakly (its memo
entry "primal"), so the memo makes no reference cycle and a cone kept after
its primal is dropped does not keep the primal alive.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial

from .core import (
    Constraint,
    LincertError,
    LinearExpr,
    NonHomogeneousError,
    Point,
    Provenance,
    Relation,
    RelationError,
    System,
    ZERO,
    sign_row,
    validate_standard_shape,
)
from .fourier import feasibility


@dataclass(frozen=True)
class PrimalCone:
    system: System
    z_index: int
    row_origin: tuple[tuple[int, int], ...]  # (cone row id, primal main row id)


def _fresh_name(taken, base="z"):
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def primal_cone(primal: System) -> PrimalCone:
    """The homogenized cone of a standard-shape primal, kept in the primal's
    memo (module docstring)."""
    return primal._remember("primal_cone", partial(_homogenize, primal))


def _homogenize(primal: System) -> PrimalCone:
    mains, _ = validate_standard_shape(primal)
    zname = _fresh_name(primal.variables)
    variables = primal.variables + (zname,)
    z = len(primal.variables)
    rows = []
    origin = []
    cid = 0
    for row in mains:
        # z is the last index, so the row's sorted nonzero terms stay so.
        expr = LinearExpr(row.expr.terms + ((z, -row.rhs),)) if row.rhs else row.expr
        rows.append(Constraint(cid, expr, Relation.LE, ZERO, Provenance.main()))
        origin.append((cid, row.cid))
        cid += 1
    for v in range(len(variables)):
        rows.append(sign_row(cid, v))
        cid += 1
    cone = System(variables, tuple(rows), is_cone=True)
    cone._memo["primal"] = weakref.ref(primal)
    return PrimalCone(cone, z, tuple(origin))


def recession_system(system: System) -> System:
    """Zero every right-hand side, sign rows included, and relax strict
    rows: the directions d with A d <= 0 along which the solutions recede."""
    rows = []
    for c in system.constraints:
        if c.relation is Relation.EQ:
            raise RelationError(f"constraint {c.cid} is an equality; expand it first")
        rows.append(Constraint(c.cid, c.expr, Relation.LE, ZERO, c.provenance))
    return system.with_rows(rows)


def _signed_ray(system: System, signed: set[int]) -> Point | None:
    """A point of `system` with sum(x_v for v in signed) >= 1, or None.

    No elimination runs when the capping rows settle it (module docstring):
    every variable signed, every row <= or < with a right side <= 0 (so the
    points satisfy x >= 0 and Ax <= 0), and the main rows with no negative
    coefficient mentioning every variable.  Otherwise one Fourier probe
    decides."""
    rows = system.constraints
    nvars = len(system.variables)
    if len(signed) == nvars and all(c.relation is not Relation.EQ and c.rhs <= 0 for c in rows):
        caps = [c.expr.terms for c in system.main_rows() if all(a > 0 for _, a in c.expr.terms)]
        if len({v for terms in caps for v, _ in terms}) == nvars:
            return None
    expr = LinearExpr.from_terms({v: -1 for v in signed})
    probe = Constraint(system.next_id(), expr, Relation.LE, ZERO - 1, Provenance.main())
    verdict = feasibility(system.with_rows(rows + (probe,)))
    return verdict.witness if verdict.feasible else None


def has_solution_at_infinity(system: System) -> tuple[bool, Point | None]:
    """Search the recession cone for a nonzero ray; the answer is kept in
    the system's memo (module docstring).

    One probe, sum(x_j) >= 1 over the sign-constrained coordinates, finds a
    ray whenever one has a signed coordinate off zero: those coordinates are
    >= 0 on the cone, so such a ray scales to meet the probe.  When every
    coordinate is signed and the rows with no negative coefficient cap each
    of them, x >= 0 and Ax <= 0 force x = 0 and the probe is skipped
    (_signed_ray).  Only when the probe fails are the unsigned coordinates
    probed one at a time (x_v >= 1, then x_v <= -1).  Every ray left has its
    signed coordinates at zero, so a nonzero one is nonzero on some unsigned
    coordinate, and scaling makes that coordinate reach 1 or -1: the search
    stays exact."""
    return system._remember("has_solution_at_infinity", partial(_search_rays, system))


def _search_rays(system: System) -> tuple[bool, Point | None]:
    recession = recession_system(system)
    signed = {v for v in range(len(system.variables)) if recession.sign_row_for(v) is not None}
    if signed:
        ray = _signed_ray(recession, signed)
        if ray is not None:
            return True, ray
    cid = recession.next_id()
    for v in range(len(system.variables)):
        if v in signed:
            continue
        for expr in (LinearExpr.from_terms({v: -1}), LinearExpr.from_terms({v: 1})):
            probe_row = Constraint(cid, expr, Relation.LE, ZERO - 1, Provenance.main())
            verdict = feasibility(recession.with_rows(recession.constraints + (probe_row,)))
            if verdict.feasible:
                return True, verdict.witness
    return False, None


def is_bounded(system: System) -> bool:
    """Bounded means no solutions at infinity (trivial recession cone).

    A system whose rows with no negative coefficient cap every variable,
    all of them signed, is bounded without elimination: for x >= 0 with
    Ax <= 0, 0 >= y'Ax = sum_j (A'y)_j x_j >= 0 forces x = 0."""
    return not has_solution_at_infinity(system)[0]


def is_reduced_to_origin(cone: System) -> bool:
    """For a homogeneous, fully sign-constrained system: is the origin the
    only point?

    A cone built by primal_cone whose primal is still alive is the origin
    alone exactly when that primal is unsolvable and bounded (module
    docstring), so the primal's memoized verdict and ray search
    answer.  Any other cone gets one probe: under x >= 0, sum(x) >= 1
    decides it, and capping rows that cover every variable settle it first,
    with no probe: 0 >= y'Ax = sum_j (A'y)_j x_j >= 0 forces x = 0."""
    for c in cone.constraints:
        if c.rhs != 0:
            raise NonHomogeneousError(f"constraint {c.cid} has nonzero right side {c.rhs}")
    unsigned = [name for v, name in enumerate(cone.variables) if cone.sign_row_for(v) is None]
    if unsigned:
        raise LincertError("variables without sign rows: " + ", ".join(unsigned))
    ref = cone._memo.get("primal")
    primal = ref() if ref is not None else None
    if primal is not None:
        return not feasibility(primal).feasible and is_bounded(primal)
    return _signed_ray(cone, set(range(len(cone.variables)))) is None


def is_full_dimensional(system: System) -> bool:
    """An interior point exists: the system is feasible and every implicit
    equality has an all-zero left side ([0] <= 0 cuts no dimension)."""
    verdict = feasibility(system)
    return verdict.feasible and all(system.constraint(cid).expr.is_zero for cid in verdict.implicit_ids)


def dehomogenize(cone: PrimalCone, point: Point) -> Point:
    """Divide a cone point with z > 0 back into primal coordinates."""
    z = point.value(cone.z_index)
    if z <= 0:
        raise LincertError("cone point has no positive homogenizing coordinate")
    return Point.of({v: point.value(v) / z for v in range(cone.z_index)})
