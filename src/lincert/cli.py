"""Command-line front end.

Subcommands map one-to-one onto the library: check (feasibility with
evidence), fourier (projection), dual (elementary / strong dual), implicit
(implicit-equality report), cone (homogenization and dichotomy flags),
solve9 (the bounded-solvability elimination loop), difftest (seeded
differential testing).  solve9 always caps the cone with sum(x) <= 2 and
has no --sigma; only `dual --strong` takes one, as the objective value
substituted into the extension.  Every subcommand takes --json for machine
output and --quiet to suppress stdout; results also land in the exit code:

    check:   0 feasible, 1 infeasible, 2 error
    solve9:  0 solvable, 1 unsolvable, 2 error, 3 pivot-sensitive (--explore)
    others:  0 ok, 2 error
    all:     4 internal error (lincert's own evidence failed its check)

Rationals are always serialized as exact 'p/q' strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    InvariantError,
    LincertError,
    MultiplierVector,
    Point,
    System,
    expand_equalities,
)
from .cone import (
    is_bounded,
    is_full_dimensional,
    is_reduced_to_origin,
    primal_cone,
)
from .dual import elementary_dual, strong_elementary_dual
from .fourier import feasibility, project
from .harness import GenParams, run_difftest
from .implicit import implicit_set
from .pipeline import explore, format_sequence, parse_rule, run
from .sysfile import (
    ParseError,
    parse_expr,
    format_constraint,
    format_rational,
    parse,
    parse_rational,
    print_system,
)


def _read_system(path: str) -> System:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse(f.read())
    except OSError as exc:
        raise LincertError(f"cannot read {path}: {exc}") from None


def _point_json(system: System, point: Point) -> dict:
    return {system.variables[v]: format_rational(x) for v, x in point.values}


def _multipliers_json(lam: MultiplierVector) -> dict:
    return {str(cid): format_rational(w) for cid, w in lam.entries}


def _interval_json(interval) -> dict:
    return {
        "empty": interval.empty,
        "lo": format_rational(interval.lo) if interval.lo is not None else None,
        "lo_open": interval.lo_open,
        "hi": format_rational(interval.hi) if interval.hi is not None else None,
        "hi_open": interval.hi_open,
        "text": interval.describe(),
    }


class Output:
    def __init__(self, args):
        self.json = bool(getattr(args, "json", False))
        self.quiet = bool(getattr(args, "quiet", False))

    def emit(self, payload: dict, human: str):
        if self.quiet:
            return
        if self.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(human, end="" if human.endswith("\n") else "\n")


def cmd_check(args) -> int:
    out = Output(args)
    system = expand_equalities(_read_system(args.file))
    verdict = feasibility(system)
    payload = {
        "kind": "check-report",
        "version": 1,
        "feasible": verdict.feasible,
        "system": print_system(system) if out.json else None,
        "witness": _point_json(system, verdict.witness) if verdict.feasible else None,
        "certificate": _multipliers_json(verdict.certificate) if not verdict.feasible else None,
    }
    if verdict.feasible:
        values = " ".join(
            f"{system.variables[v]}={format_rational(x)}" for v, x in verdict.witness.values
        )
        out.emit(payload, f"feasible\nwitness: {values}\n")
        return 0
    rows = " ".join(f"{cid}:{format_rational(w)}" for cid, w in verdict.certificate.entries)
    out.emit(payload, f"infeasible\ncertificate multipliers (by row id): {rows}\n")
    return 1


def cmd_fourier(args) -> int:
    out = Output(args)
    system = expand_equalities(_read_system(args.file))
    names = [n.strip() for n in args.eliminate.split(",") if n.strip()]
    drop = {system.var_index(n) for n in names}
    keep = {v for v in range(len(system.variables)) if v not in drop}
    projected = project(system, keep)
    text = print_system(projected)
    out.emit({"kind": "projection-report", "version": 1, "system": text}, text)
    return 0


def _read_flag(flag: str, read, *args):
    """A command-line flag's value read by a sysfile parser; its parse
    error names the flag, as there is no file line to name."""
    try:
        return read(*args)
    except ParseError as exc:
        raise LincertError(f"{flag}: {exc.reason}") from None


def cmd_dual(args) -> int:
    out = Output(args)
    if not args.strong and (args.objective is not None or args.sigma is not None):
        raise LincertError("--objective and --sigma need --strong")
    primal = _read_system(args.file)
    if args.strong:
        if args.objective is not None:
            index = {n: i for i, n in enumerate(primal.variables)}
            objective = _read_flag("--objective", parse_expr, args.objective, index, 0)
        elif primal.objective is not None:
            objective = primal.objective
        else:
            raise LincertError("--strong needs --objective or a maximize: line in the file")
        sigma = _read_flag("--sigma", parse_rational, args.sigma) if args.sigma is not None else None
        dual = strong_elementary_dual(primal, objective, sigma)
    else:
        dual = elementary_dual(primal)
    comments = {}
    for cid, var in dual.row_origin:
        comments[cid] = f"row for {primal.variables[var]}"
    comments[dual.extension_id] = "extension"
    origin_lines = [
        f"{dual.system.variables[lam]} <- row {cid}: "
        + format_constraint(primal.constraint(cid), primal)
        for lam, cid in dual.lambda_origin
    ]
    text = print_system(dual.system, orientation="ge", comments=comments)
    human = "".join(f"# {line}\n" for line in origin_lines) + text
    payload = {
        "kind": "dual-report",
        "version": 1,
        "strong": bool(args.strong),
        "sigma": format_rational(dual.sigma) if args.strong and dual.sigma is not None else None,
        "system": text,
        "extension_row": dual.extension_id,
        "origin": {dual.system.variables[lam]: cid for lam, cid in dual.lambda_origin},
    }
    out.emit(payload, human)
    return 0


def cmd_implicit(args) -> int:
    out = Output(args)
    system = expand_equalities(_read_system(args.file))
    report = implicit_set(system)
    payload = {
        "kind": "implicit-report",
        "version": 1,
        "feasible": report.feasible,
        "implicit_ids": sorted(report.implicit_ids),
        "certificate": _multipliers_json(report.certificate),
        "system": print_system(system) if out.json else None,
    }
    if not report.feasible:
        human = "infeasible system: implicit equalities are undefined\n"
    elif not report.implicit_ids:
        human = "no implicit equalities\n"
    else:
        ids = ", ".join(str(i) for i in sorted(report.implicit_ids))
        rows = " ".join(f"{cid}:{format_rational(w)}" for cid, w in report.certificate.entries)
        human = f"implicit equalities (row ids): {ids}\ncertificate multipliers: {rows}\n"
    out.emit(payload, human)
    return 0


def cmd_cone(args) -> int:
    out = Output(args)
    primal = _read_system(args.file)
    if primal.is_cone:
        cone_system = primal
        z_name = None
    else:
        built = primal_cone(primal)
        cone_system = built.system
        z_name = cone_system.variables[built.z_index]
    text = print_system(cone_system)
    payload = {
        "kind": "cone-report",
        "version": 1,
        "system": text,
        "z": z_name,
        "analysis": None,
    }
    human = text
    if args.analyze:
        analysis = {
            "bounded": is_bounded(primal),
            "reduced_to_origin": is_reduced_to_origin(cone_system),
            "full_dimensional": is_full_dimensional(primal),
        }
        payload["analysis"] = analysis
        human += (
            f"# bounded: {analysis['bounded']}\n"
            f"# reduced to origin: {analysis['reduced_to_origin']}\n"
            f"# full dimensional: {analysis['full_dimensional']}\n"
        )
    out.emit(payload, human)
    return 0


def cmd_solve9(args) -> int:
    out = Output(args)
    primal = _read_system(args.file)
    trace = run(primal, parse_rule(args.rule))
    payload = {
        "kind": "solve9-report",
        "version": 1,
        "verdict": trace.verdict,
        "interval": _interval_json(trace.interval),
        "working_system": trace.working_text if out.json else None,
        "labels": {str(cid): label for cid, label in trace.working.labels},
        "steps": [s.report(with_text=args.trace) for s in trace.steps],
        "terminal_system": trace.terminal_text,
        "explore": None,
    }
    lines = [f"verdict: {trace.verdict}", f"terminal interval for l1: {trace.interval.describe()}"]
    for s in trace.steps:
        what = f"{s.var_name} via {s.pivot_label}" if s.pivot_label else f"{s.var_name} := 0"
        lines.append(f"step: eliminate {what} ({s.kind})")
        if args.trace:
            lines.append(s.text.rstrip("\n"))
    lines.append("terminal system:")
    lines.append(trace.terminal_text.rstrip("\n"))
    sensitive = False
    if args.explore:
        result = explore(primal)
        sensitive = result.pivot_sensitive
        payload["explore"] = {
            "pivot_sensitive": result.pivot_sensitive,
            "sequence_count": result.sequence_count,
            "outcomes": [
                {
                    "verdict": o.verdict,
                    "interval": _interval_json(o.interval),
                    "sequence": [list(step) for step in o.sequence],
                }
                for o in result.outcomes
            ],
        }
        lines.append(f"explore: {len(result.outcomes)} distinct outcomes over {result.sequence_count} sequences")
        for o in result.outcomes:
            lines.append(f"  {o.verdict} {o.interval.describe()} via {format_sequence(o.sequence)}")
        lines.append(f"pivot-sensitive: {result.pivot_sensitive}")
    out.emit(payload, "\n".join(lines) + "\n")
    if sensitive:
        return 3
    return 0 if trace.solvable else 1


def cmd_difftest(args) -> int:
    out = Output(args)
    params = GenParams(
        max_vars=args.max_vars,
        max_cons=args.max_cons,
        mode=args.mode,
        seed=args.seed,
    )
    report = run_difftest(params, args.trials)
    payload = report.to_dict()
    lines = [
        f"trials: {report.trial_count}",
        f"agreements: {report.agreement_count}",
        f"agreement rate: {payload['agreement_rate']}",
        f"pivot-sensitive systems: {report.pivot_sensitive_count}",
        f"disagreements: {sorted(t.index for t in report.disagreements)}",
        f"wall clock: {report.wall_clock_seconds:.3f}s",
    ]
    out.emit(payload, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lincert",
        description="Exact linear-inequality analysis with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--quiet", action="store_true", help="no stdout; exit code only")

    p = sub.add_parser("check", help="decide feasibility with witness or certificate")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fourier", help="project a system by eliminating variables")
    p.add_argument("file")
    p.add_argument("--eliminate", required=True, help="comma-separated variable names")
    common(p)
    p.set_defaults(fn=cmd_fourier)

    p = sub.add_parser("dual", help="elementary (or strong) dual with origin map")
    p.add_argument("file")
    p.add_argument("--strong", action="store_true")
    p.add_argument("--objective", help="objective expression for the strong dual")
    p.add_argument("--sigma", help="objective value to substitute into the extension")
    common(p)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("implicit", help="implicit-equality report with certificate")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_implicit)

    p = sub.add_parser("cone", help="primal cone; --analyze adds dichotomy flags")
    p.add_argument("file")
    p.add_argument("--analyze", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_cone)

    p = sub.add_parser("solve9", help="bounded-solvability verdict via dual elimination")
    p.add_argument("file")
    p.add_argument("--rule", default="main-first", help="main-first | paper-seq:l3@row-x,l4@zero,... (row label or zero)")
    p.add_argument("--explore", action="store_true", help="enumerate all pivot sequences")
    p.add_argument("--trace", action="store_true", help="include intermediate systems")
    common(p)
    p.set_defaults(fn=cmd_solve9)

    p = sub.add_parser("difftest", help="seeded differential test against the oracle")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-vars", type=int, default=4)
    p.add_argument("--max-cons", type=int, default=6)
    p.add_argument("--mode", choices=["box", "filter"], default="box")
    common(p)
    p.set_defaults(fn=cmd_difftest)
    return parser


# Flags whose value is an expression or a rational, which may start with
# '-'.  argparse reads such a value ("-3/2", "-x + y") as an option of its
# own unless it looks like "-3" or "-1.5", and then stops with "expected
# one argument"; _attach_values passes it as --flag=value instead.
_SIGNED_VALUE_FLAGS = ("--objective", "--sigma")


def _attach_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if arg in _SIGNED_VALUE_FLAGS and value.startswith("-") and not value.startswith("--"):
            out.append(f"{arg}={value}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_values(argv))
    try:
        return args.fn(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (LincertError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
