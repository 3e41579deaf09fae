"""An independent Fraction reference for Gaussian substitution.

`lincert.gauss` substitutes on integer rows; the tests compare it, and the
pipeline built on it, with the textbook formula on Fraction rows written
out here, so the kernel is never checked against itself.
"""

from fractions import Fraction

from lincert.core import Constraint, Provenance


def substitute_fraction(system, var, pivot_id):
    """Each other row a*x0 + L <= r with a != 0 becomes
    L/|a| - sign(a)*L0/a0 <= r/|a| - sign(a)*r0/a0; rows without x0 are
    kept as they are and the pivot row is dropped."""
    pivot = system.constraint(pivot_id)
    a0 = pivot.expr.coeff(var)
    l0 = pivot.expr.drop(var)
    rows = []
    for c in system.constraints:
        if c.cid == pivot_id:
            continue
        a = c.expr.coeff(var)
        if a == 0:
            rows.append(c)
            continue
        s = 1 if a > 0 else -1
        expr = c.expr.drop(var).scale(1 / abs(a)) - l0.scale(Fraction(s) / a0)
        rhs = c.rhs / abs(a) - pivot.rhs * s / a0
        rows.append(Constraint(c.cid, expr, c.relation, rhs, Provenance.derived((c.cid, pivot_id))))
    return system.with_rows(rows)
