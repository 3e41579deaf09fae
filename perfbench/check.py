"""Independent checks of lincert's evidence in plain Fraction arithmetic.

Rows are ``{cid: (coeffs, rel, rhs)}`` with dense coefficient tuples and
``rel`` either ``"<="`` or ``"<"``.  Points and weights are plain dicts.
Nothing here imports lincert, so a fault there cannot vouch for itself.
"""

from fractions import Fraction

ZERO = Fraction(0)


def satisfies(rows, point) -> bool:
    """Every row holds at ``point`` (var index -> value)."""
    for coeffs, rel, rhs in rows.values():
        lhs = sum((c * point[v] for v, c in enumerate(coeffs) if c), ZERO)
        if not (lhs < rhs if rel == "<" else lhs <= rhs):
            return False
    return True


def weighted_sum(rows, weights):
    """``(coeffs, strict, rhs)`` of sum(w * row), or None for a negative or
    unknown weight."""
    nvars = len(next(iter(rows.values()))[0])
    total, rhs, strict = [ZERO] * nvars, ZERO, False
    for cid, w in weights.items():
        if w < 0 or cid not in rows:
            return None
        coeffs, rel, b = rows[cid]
        for v, c in enumerate(coeffs):
            total[v] += w * c
        rhs += w * b
        strict = strict or (w > 0 and rel == "<")
    return total, strict, rhs


def is_contradiction(rows, weights) -> bool:
    """The weights combine the rows into [0] <= r < 0 (or [0] < r <= 0)."""
    s = weighted_sum(rows, weights)
    return s is not None and not any(s[0]) and (s[2] < 0 or (s[1] and s[2] <= 0))


def is_zero_combination(rows, weights, positive_on=()) -> bool:
    """The weights combine the rows into [0] with right side 0, with positive
    weight on every id in ``positive_on``."""
    s = weighted_sum(rows, weights)
    return (
        s is not None
        and not any(s[0])
        and s[2] == 0
        and all(weights.get(cid, ZERO) > 0 for cid in positive_on)
    )


def elementary_dual_rows(mains, nvars):
    """The elementary dual of AX <= b, x >= 0 (mains as ``[(coeffs, b)]``):
    -A^T L <= 0 (ids 0..n-1), extension b.L <= 0 (id n), -l_i <= 0."""
    m = len(mains)
    rows = {j: (tuple(-a[j] for a, _ in mains), "<=", ZERO) for j in range(nvars)}
    rows[nvars] = (tuple(b for _, b in mains), "<=", ZERO)
    for i in range(m):
        rows[nvars + 1 + i] = (tuple(-Fraction(k == i) for k in range(m)), "<=", ZERO)
    return rows
