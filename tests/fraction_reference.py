"""Independent Fraction references for Gaussian substitution, the Fourier
pair step, Fourier back-substitution and the tight-row test, the Farkas
and equality-certificate replays, the one-variable interval, the
multiplier combination and the certificate checks built on it, the strong
elementary dual, the homogenized primal cone, the system printer, and the
helpers the tests share.

`lincert.gauss` substitutes, `lincert.fourier` combines pairs,
back-substitutes, tests rows for tightness and replays its traces,
`lincert.core` reads intervals and combines rows, and `lincert.sysfile`
prints coefficients, all on integers; the tests compare them, and the
pipeline built on them, with the textbook formulas on Fraction rows
written out here, so the kernels are never checked against themselves.
"""

from fractions import Fraction
from math import gcd, lcm

from lincert.core import (
    Constraint,
    InfeasibleSystemError,
    Interval,
    LincertError,
    LinearExpr,
    MultiplierVector,
    NegativeMultiplierError,
    Point,
    Provenance,
    Relation,
    RelationError,
    RowClass,
    System,
    UnknownConstraintError,
    ZERO,
    is_zero_row,
    rat,
    validate_standard_shape,
)
from lincert.cone import PrimalCone
from lincert.dual import ElementaryDual
from lincert.fourier import EliminationStep, ProducedRow, _pick_midpoint, project


def interval_of_reference(rows):
    """The interval of l under (a, rhs, strict) rows a*l <= rhs (< when
    strict), one Fraction rhs/a per bound compared as Fractions; a strict
    row wins a tie, and a var-free row that fails empties the interval."""
    lo = hi = None
    lo_open = hi_open = empty = False
    for a, rhs, strict in rows:
        if a == 0:
            empty = empty or rhs < 0 or (strict and rhs == 0)
            continue
        bound = Fraction(rhs) / a
        if a > 0 and (hi is None or bound < hi or (bound == hi and strict)):
            hi, hi_open = bound, strict
        elif a < 0 and (lo is None or bound > lo or (bound == lo and strict)):
            lo, lo_open = bound, strict
    if empty or (lo is not None and hi is not None and (lo > hi or (lo == hi and (lo_open or hi_open)))):
        return Interval(empty=True)
    return Interval(False, lo, lo_open, hi, hi_open)


def combine_reference(system, lam):
    """sum(w_i * row_i) as `core.combine` once made it: one LinearExpr sum
    per weighted row, each row found by `System.constraint`."""
    expr = LinearExpr()
    rhs = ZERO
    strict = False
    parents = []
    for cid, w in lam.entries:
        if w < 0:
            raise NegativeMultiplierError(f"multiplier for constraint {cid} is negative")
        row = system.constraint(cid)
        if row.relation is Relation.EQ:
            raise RelationError(f"constraint {cid} is an equality; expand it to inequality form first")
        expr = expr + row.expr.scale(w)
        rhs += row.rhs * w
        if row.relation is Relation.LT and w:
            strict = True
        parents.append(cid)
    rel = Relation.LT if strict else Relation.LE
    return Constraint(-1, expr, rel, rhs, Provenance.derived(sorted(parents)))


def is_equality_certificate_reference(system, lam):
    """`combine_reference` sums the weighted rows to [0] <= 0."""
    combined = combine_reference(system, lam)
    return combined.expr.is_zero and combined.rhs == 0


def is_infeasibility_certificate_reference(system, lam):
    """`combine_reference` sums the weighted rows to [0] <= r < 0, or to
    [0] < r <= 0 when a strict row carries a positive weight."""
    combined = combine_reference(system, lam)
    if not combined.expr.is_zero:
        return False
    return combined.rhs <= 0 if combined.relation is Relation.LT else combined.rhs < 0


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


def _coprime(expr, rhs):
    """(expr, rhs, factor): the row divided by factor, a coprime integer
    vector with the same signs; an all-zero row keeps factor 1."""
    entries = [c for _, c in expr.terms] + [rhs]
    if not any(entries):
        return expr, rhs, Fraction(1)
    factor = Fraction(gcd(*(c.numerator for c in entries)), lcm(*(c.denominator for c in entries)))
    return expr.scale(1 / factor), rhs / factor, factor


def normalized_key(constraint):
    """Structural row identity up to positive scaling: the row as a coprime
    integer vector, sign preserved, in Fractions."""
    expr, rhs, _ = _coprime(constraint.expr, constraint.rhs)
    return (expr.terms, constraint.relation, rhs)


def eliminate_var_fraction(system, var):
    """One Fourier step, as a lone `eliminate_var` call makes it.

    Rows without x pass through.  Each pair pos, neg with x coefficients
    a > 0 and -b < 0 gives pos/a + neg/b, strict if either row is.  A
    var-free tautology is dropped, and recorded with weights (1/a, 1/b) in
    zero_rows when it reads [0] <= 0.  Any other row is divided by its
    factor to a coprime integer vector, with weights (1/a, 1/b)/factor; a
    row equal entry for entry to a kept row merges into it.  Returns the new
    System and its EliminationStep."""
    rows = [c for c in system.constraints if c.expr.coeff(var) == 0]
    by_key = {c.key(): c.cid for c in rows}
    produced, zero_rows, merged = {}, [], []
    next_id = system.next_id()
    for pos in system.constraints:
        a = pos.expr.coeff(var)
        if a <= 0:
            continue
        for neg in system.constraints:
            b = -neg.expr.coeff(var)
            if b <= 0:
                continue
            expr = pos.expr.scale(1 / a) + neg.expr.scale(1 / b)
            rhs = pos.rhs / a + neg.rhs / b
            rel = Relation.LT if Relation.LT in (pos.relation, neg.relation) else Relation.LE
            if expr.is_zero and rel.holds(0, rhs):
                if rhs == 0:
                    zero_rows.append(((pos.cid, 1 / a), (neg.cid, 1 / b)))
                continue
            expr, rhs, factor = _coprime(expr, rhs)
            derivation = ((pos.cid, 1 / a / factor), (neg.cid, 1 / b / factor))
            key = (expr.terms, rel, rhs)
            if key in by_key:
                cid = by_key[key]
                if cid in produced:
                    produced[cid] += (derivation,)
                else:
                    merged.append((cid, derivation))
                continue
            rows.append(Constraint(next_id, expr, rel, rhs, Provenance.derived((pos.cid, neg.cid))))
            produced[next_id] = (derivation,)
            by_key[key] = next_id
            next_id += 1
    step = EliminationStep(
        var, tuple(ProducedRow(cid, d) for cid, d in produced.items()), tuple(zero_rows), tuple(merged)
    )
    return system.with_rows(rows), step


def back_substitute_fraction(chain, order):
    """The witness of a feasible chain in Fraction arithmetic: variable
    order[i], last first, takes the midpoint of the interval its rows in
    chain[i] leave it, each row's other terms evaluated at the values
    already fixed."""
    known = {}
    for i in range(len(order) - 1, -1, -1):
        var = order[i]
        fiber = []
        for c in chain[i].constraints:
            a = c.expr.coeff(var)
            if a:
                rest = sum((x * known[v] for v, x in c.expr.terms if v != var), ZERO)
                fiber.append((a, c.rhs - rest, c.relation is Relation.LT))
        known[var] = _pick_midpoint(interval_of_reference(fiber))
    return Point.of(known)


def tight_rows_fraction(system, point):
    """The <= rows whose left side equals the right side at the point."""
    return frozenset(
        c.cid for c in system.constraints if c.relation is Relation.LE and c.expr.value_at(point) == c.rhs
    )


def farkas_reference(trace, cid):
    """Replay row cid to input-row multipliers by ids in descending order,
    following each row's first derivation: ids grow along derivations, so a
    row's weight is complete before its id comes up."""
    derivations = {}
    for step in trace.steps:
        for row in step.produced:
            derivations[row.cid] = row.derivations[0]
    if cid not in trace.input_ids and cid not in derivations:
        raise UnknownConstraintError(f"constraint {cid} is not recorded in the trace")
    weights = {cid: Fraction(1)}
    for current in sorted(derivations, reverse=True):
        w = weights.pop(current, None)
        if w is not None:
            for parent, coeff in derivations[current]:
                weights[parent] = weights.get(parent, ZERO) + w * coeff
    assert set(weights) <= trace.input_ids
    return MultiplierVector.of(weights)


def equality_certificate_reference(system, trace):
    """Every [0] <= 0 row of the chain, input or dropped, replayed to the
    input rows in Fraction weights, step by step, last step first: a row's
    weight is split evenly over its derivations, an input row counting as
    one of its own, and a pass-through row's merged derivation takes its
    share when its step comes up."""
    ways = {cid: 1 for cid in trace.input_ids}
    for step in trace.steps:
        ways.update((row.cid, len(row.derivations)) for row in step.produced)
        for cid, _ in step.merged:
            ways[cid] += 1
    weights = {}

    def spread(derivation, w):
        for parent, coeff in derivation:
            weights[parent] = weights.get(parent, ZERO) + w * coeff

    for c in system.constraints:
        if c.relation is Relation.LE and c.expr.is_zero and c.rhs == 0:
            weights[c.cid] = Fraction(1)
    for step in reversed(trace.steps):
        for derivation in step.zero_rows:
            spread(derivation, Fraction(1))
        for cid, derivation in step.merged:
            if cid in weights:
                spread(derivation, weights[cid] / ways[cid])
        for row in step.produced:
            if row.cid in weights:
                w = weights.pop(row.cid) / ways[row.cid]
                for derivation in row.derivations:
                    spread(derivation, w)
    return MultiplierVector.of((cid, w / ways[cid]) for cid, w in weights.items())


def strong_elementary_dual_reference(primal, objective, sigma=None):
    """The strong elementary dual coefficient by coefficient: dual row j is
    -sum_i a_ij l_i <= -c_j, each entry read by `LinearExpr.coeff`; the
    extension and sign rows as in `lincert.dual`."""
    mains, _ = validate_standard_shape(primal)
    nlam = len(mains)
    lam_names = tuple(f"l{i + 1}" for i in range(nlam))
    nvars = len(primal.variables)
    sigma = rat(sigma) if sigma is not None else None
    variables = lam_names if sigma is not None else lam_names + primal.variables
    rows = []
    for j in range(nvars):
        expr = LinearExpr.from_terms({i: -mains[i].expr.coeff(j) for i in range(nlam)})
        rows.append(Constraint(j, expr, Relation.LE, -objective.coeff(j), Provenance.main()))
    ext = {i: mains[i].rhs for i in range(nlam)}
    if sigma is None:
        ext.update((nlam + j, -c) for j, c in objective.terms)
    ext_rhs = ZERO if sigma is None else sigma
    rows.append(Constraint(nvars, LinearExpr.from_terms(ext), Relation.LE, ext_rhs, Provenance.extension()))
    for i in range(nlam):
        rows.append(Constraint(nvars + 1 + i, LinearExpr.from_terms({i: -1}), Relation.LE, ZERO, Provenance.sign()))
    origin = tuple((i, mains[i].cid) for i in range(nlam))
    row_origin = tuple((j, j) for j in range(nvars))
    return ElementaryDual(System(variables, tuple(rows)), nvars, origin, row_origin, objective, sigma)


def homogenize_reference(primal):
    """The primal cone through `LinearExpr.from_terms`: main row i becomes
    a_i x - r_i z <= 0 under id i, then one sign row per variable, z
    (named "z") last, as in `lincert.cone`."""
    mains, _ = validate_standard_shape(primal)
    z = len(primal.variables)
    rows = []
    for i, row in enumerate(mains):
        terms = dict(row.expr.terms)
        terms[z] = -row.rhs
        rows.append(Constraint(i, LinearExpr.from_terms(terms), Relation.LE, ZERO, Provenance.main()))
    for v in range(z + 1):
        rows.append(Constraint(len(mains) + v, LinearExpr.from_terms({v: -1}), Relation.LE, ZERO, Provenance.sign()))
    origin = tuple((i, row.cid) for i, row in enumerate(mains))
    return PrimalCone(System(primal.variables + ("z",), tuple(rows), is_cone=True), z, origin)


def terminal_interval(system, var):
    """Exact feasible interval of a one-variable system, bound by bound."""
    rows = []
    for c in system.constraints:
        extra = [v for v, _ in c.expr.terms if v != var]
        if extra:
            names = ", ".join(system.variables[v] for v in extra)
            raise LincertError(f"terminal system still mentions {names}")
        if c.relation is Relation.EQ:
            raise LincertError(f"terminal system contains an equality row {c.cid}")
        rows.append((c.expr.coeff(var), c.rhs, c.relation is Relation.LT))
    return interval_of_reference(rows)


def sample_point(system, rng):
    """A random feasible point by perturbed back-substitution: variable i,
    last first, takes a random point of its fiber in the projection onto
    variables i..n-1, the later ones fixed.  Raises InfeasibleSystemError
    on an infeasible system."""
    n = len(system.variables)
    if any(is_zero_row(c) is RowClass.CONTRADICTION for c in project(system, keep=set()).constraints):
        raise InfeasibleSystemError("cannot sample from an infeasible system")
    known = {}
    for var in range(n - 1, -1, -1):
        rows = []
        for c in project(system, keep=set(range(var, n))).constraints:
            if c.expr.coeff(var):
                rest = sum(x * known[v] for v, x in c.expr.terms if v != var)
                rows.append((c.expr.coeff(var), c.rhs - rest, c.relation is Relation.LT))
        fiber = interval_of_reference(rows)
        lo, hi = fiber.lo, fiber.hi
        if lo is not None and hi is not None:
            known[var] = lo if lo == hi else lo + (hi - lo) * Fraction(rng.randint(1, 15), 16)
        elif lo is not None:
            known[var] = lo + rng.randint(1, 8)
        elif hi is not None:
            known[var] = hi - rng.randint(1, 8)
        else:
            known[var] = Fraction(rng.randint(-4, 4))
    return Point.of(known)


def format_expr_reference(expr, system):
    """`sysfile.format_expr` as it once was: abs, sign tests and str on
    each Fraction coefficient."""
    if expr.is_zero:
        if not system.variables:
            raise LincertError("cannot print a zero expression without variables")
        return f"0*{system.variables[0]}"
    parts = []
    for var, coef in expr.terms:
        name = system.variables[var]
        mag = abs(coef)
        body = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)


def format_constraint_reference(c, system, orientation="le"):
    """`sysfile.format_constraint` as it once was: a `>=` row is printed by
    negating the LinearExpr and the Fraction right side."""
    expr, rel, rhs = c.expr, c.relation, c.rhs
    if orientation == "ge" and rel in (Relation.LE, Relation.LT):
        expr, rhs = -expr, -rhs
        symbol = ">=" if rel is Relation.LE else ">"
    else:
        symbol = rel.value
    return f"{format_expr_reference(expr, system)} {symbol} {rhs}"


def print_system_reference(system, orientation="le", comments=None):
    """`sysfile.print_system` as it once was: a sign row goes to the
    nonneg: line when its key equals that of -x <= 0."""
    comments = comments or {}
    out = ["vars: " + " ".join(system.variables) if system.variables else "vars:"]
    if system.is_cone:
        out.append("cone")
    if system.objective is not None:
        out.append("maximize: " + format_expr_reference(system.objective, system))
    sign_names = []
    for c in system.constraints:
        terms = c.expr.terms
        if c.provenance.kind == "sign" and len(terms) == 1 and c.key() == (((terms[0][0], -1),), Relation.LE, 0):
            sign_names.append(system.variables[terms[0][0]])
            continue
        if c.cid in comments:
            out.append(f"# {comments[c.cid]}")
        out.append(format_constraint_reference(c, system, orientation))
    if sign_names:
        ordered = [n for n in system.variables if n in sign_names]
        out.append("nonneg: all" if len(ordered) == len(system.variables) else "nonneg: " + " ".join(ordered))
    return "\n".join(out) + "\n"
