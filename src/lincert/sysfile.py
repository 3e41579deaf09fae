"""Line-oriented text format for constraint systems.

    # comments run to end of line; blank lines are ignored
    vars: x y                  (required header, fixes variable order)
    cone                       (optional: already-homogeneous cone)
    maximize: x + y            (optional objective)
    -x + y <= 2                (constraints; rel in <=, >=, =, <, >)
    1/2*x - 3*y >= 0           (coefficients are integers or p/q)
    nonneg: all                (or a list of names; expands to sign rows)

Everything is stored in <= / < orientation; >= and > rows are negated on
entry.  Printing emits the canonical form, so parse(print(s)) reproduces s
and print(parse(text)) canonicalizes text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .core import (
    Constraint,
    LincertError,
    LinearExpr,
    Provenance,
    Relation,
    System,
    rat,
    sign_row,
)


class ParseError(LincertError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


_NAME = r"[A-Za-z_]\w*"
_NUMBER = r"\d+(?:/\d+)?"
_TERM = re.compile(rf"\s*(?P<sign>[+-])?\s*(?:(?P<coef>{_NUMBER})\s*\*\s*)?(?P<var>{_NAME})")
_RELATION = re.compile(r"\s*(<=|>=|=|<|>)\s*")
_RHS = re.compile(rf"\s*(?P<sign>[+-])?\s*(?P<value>{_NUMBER})\s*$")


def format_rational(q: Fraction) -> str:
    return str(q)  # Fraction prints p or p/q, never a float


def _number(digits: str, line: int, negative: bool = False) -> Fraction:
    """A token that matched _NUMBER, negated when `negative`, built from its
    integers: Fraction(str) would run its own regex over digits already
    checked.  An integer comes through core.rat, which shares one Fraction
    per small integer."""
    num, _, den = digits.partition("/")
    num = -int(num) if negative else int(num)
    if not den:
        return rat(num)
    if int(den) == 0:
        raise ParseError(f"zero denominator in {digits!r}", line)
    return Fraction(num, int(den))


def parse_rational(token: str, line: int = 0) -> Fraction:
    m = _RHS.match(token)
    if not m:
        raise ParseError(f"expected a rational number, got {token.strip()!r}", line)
    return _number(m.group("value"), line, m.group("sign") == "-")


def parse_expr(text: str, index: Mapping[str, int], line: int) -> LinearExpr:
    pos = 0
    first = True
    terms: list[tuple[int, Fraction]] = []
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"cannot read term at {text[pos:].strip()!r}", line)
            break
        if not first and m.group("sign") is None:
            raise ParseError(f"missing + or - before {m.group('var')!r}", line)
        coef = _number(m.group("coef") or "1", line, m.group("sign") == "-")
        name = m.group("var")
        if name not in index:
            raise ParseError(f"unknown variable {name!r}", line)
        terms.append((index[name], coef))
        pos = m.end()
        first = False
    if first:
        raise ParseError("empty expression", line)
    return LinearExpr.from_terms(terms)


def parse(text: str) -> System:
    variables: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    mains: list[tuple[LinearExpr, Relation, Fraction]] = []
    nonneg: list[str] = []
    objective: LinearExpr | None = None
    is_cone = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if variables is None:
            if not line.startswith("vars:"):
                raise ParseError("the first line must be 'vars: <name>...'", lineno)
            names = line[len("vars:"):].split()
            for n in names:
                if not re.fullmatch(_NAME, n):
                    raise ParseError(f"bad variable name {n!r}", lineno)
                if n in index:
                    raise ParseError(f"duplicate variable {n!r}", lineno)
                index[n] = len(index)
            variables = tuple(names)
            continue
        if line == "cone":
            is_cone = True
            continue
        if line.startswith("maximize:"):
            if objective is not None:
                raise ParseError("duplicate maximize line", lineno)
            objective = parse_expr(line[len("maximize:"):], index, lineno)
            continue
        if line.startswith("nonneg:"):
            names = line[len("nonneg:"):].split()
            if names == ["all"]:
                nonneg.extend(variables)
            else:
                for n in names:
                    if n not in index:
                        raise ParseError(f"unknown variable {n!r}", lineno)
                    nonneg.append(n)
            continue
        m = _RELATION.search(line)
        if not m:
            raise ParseError("expected '<expr> <relation> <rational>'", lineno)
        expr = parse_expr(line[: m.start()], index, lineno)
        rhs = parse_rational(line[m.end():], lineno)
        rel = m.group(1)
        if rel == ">=":
            expr, rel, rhs = -expr, Relation.LE, -rhs
        elif rel == ">":
            expr, rel, rhs = -expr, Relation.LT, -rhs
        else:
            rel = Relation(rel)
        mains.append((expr, rel, rhs))

    if variables is None:
        raise ParseError("missing 'vars:' header", len(text.splitlines()) or 1)

    rows = []
    cid = 0
    for expr, rel, rhs in mains:
        rows.append(Constraint(cid, expr, rel, rhs, Provenance.main()))
        cid += 1
    seen = set()
    for n in nonneg:
        if n in seen:
            continue
        seen.add(n)
        rows.append(sign_row(cid, index[n]))
        cid += 1
    return System(variables, tuple(rows), objective, is_cone)


def format_expr(expr: LinearExpr, system: System) -> str:
    """expr, written from the coefficients' numerators and denominators: no
    Fraction arithmetic."""
    return _write_terms(((var, a.numerator, a.denominator) for var, a in expr.terms), system.variables)


def _write_terms(terms, names: tuple[str, ...]) -> str:
    """The linear form whose terms are (variable, num, den), each
    coefficient the reduced nonzero num/den with den > 0; a form with no
    terms is written 0*<first variable>.  The one rule every printed
    expression follows."""
    parts = []
    for var, num, den in terms:
        mag = num if num > 0 else -num
        if den != 1:
            body = f"{mag}/{den}*{names[var]}"
        elif mag != 1:
            body = f"{mag}*{names[var]}"
        else:
            body = names[var]
        if parts:
            parts.append(f"+ {body}" if num > 0 else f"- {body}")
        else:
            parts.append(body if num > 0 else f"-{body}")
    if not parts:
        if not names:
            raise LincertError("cannot print a zero expression without variables")
        return f"0*{names[0]}"
    return " ".join(parts)


_GE_SYMBOL = {Relation.LE: ">=", Relation.LT: ">"}


def format_row(terms, names: tuple[str, ...], symbol: str, num: int, den: int) -> str:
    """One printed row: the linear form whose terms are (variable, num,
    den) as `_write_terms` writes it, the relation symbol, and the right
    side num/den, reduced with den > 0."""
    value = num if den == 1 else f"{num}/{den}"
    return f"{_write_terms(terms, names)} {symbol} {value}"


def format_constraint(c: Constraint, system: System, orientation: str = "le") -> str:
    """The row in <= / < form, or with `orientation="ge"` both sides negated
    into >= / > form; an equation prints as it is."""
    rel, rhs = c.relation, c.rhs
    if orientation == "ge" and rel is not Relation.EQ:
        sign, symbol = -1, _GE_SYMBOL[rel]
    else:
        sign, symbol = 1, rel.value
    terms = ((var, sign * a.numerator, a.denominator) for var, a in c.expr.terms)
    return format_row(terms, system.variables, symbol, sign * rhs.numerator, rhs.denominator)


def _is_plain_sign_row(c: Constraint) -> bool:
    """Whether c is a sign row -x <= 0, read off its fields; print_system
    lists such a row on the nonneg: line."""
    terms = c.expr.terms
    if c.provenance.kind != "sign" or len(terms) != 1 or c.relation is not Relation.LE:
        return False
    coef = terms[0][1]
    return coef.numerator == -1 and coef.denominator == 1 and c.rhs.numerator == 0


def print_system(
    system: System,
    orientation: str = "le",
    comments: Mapping[int, str] | None = None,
) -> str:
    """Canonical text form; `comments` adds a '# ...' line above a row id.

    Sign rows of the form -x <= 0 are listed on the `nonneg:` line; any
    other row, a sign row such as -x <= 3 included, prints in its place."""
    comments = comments or {}
    lines = []
    if system.is_cone:
        lines.append("cone")
    if system.objective is not None:
        lines.append("maximize: " + format_expr(system.objective, system))
    signed = set()
    for c in system.constraints:
        if _is_plain_sign_row(c):
            signed.add(c.expr.terms[0][0])
            continue
        if c.cid in comments:
            lines.append(f"# {comments[c.cid]}")
        lines.append(format_constraint(c, system, orientation))
    return print_lines(system.variables, lines, signed)


def print_lines(names: tuple[str, ...], lines: list[str], signed: set[int]) -> str:
    """The text of a system over the variables `names`: the vars: line,
    `lines`, and last the nonneg: line of the variables in `signed`."""
    out = ["vars: " + " ".join(names) if names else "vars:", *lines]
    if signed:
        if len(signed) == len(names):
            out.append("nonneg: all")
        else:
            out.append("nonneg: " + " ".join(n for v, n in enumerate(names) if v in signed))
    return "\n".join(out) + "\n"
