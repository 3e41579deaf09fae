import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from lincert.cli import main
from lincert.sysfile import print_system

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "schema" / "report.schema.json").read_text())

SECTION2 = "vars: x y\n-x + y <= 2\nx - y <= -1\nnonneg: all\n"
SECTION2_INFEASIBLE = "vars: x y\n-x + y <= -2\nx - y <= 1\nnonneg: all\n"
SOLVABLE_CONE = "vars: x y\ncone\nx - 2*y <= 0\nx - y <= 0\nx - 3*y <= 0\nnonneg: all\n"
PINCHED_CONE = "vars: x y\ncone\nx + y <= 0\n-x - y <= 0\nnonneg: all\n"
# Bounded, but every row has a negative coefficient: is_bounded probes.
UNCAPPED_BOUNDED = "vars: x y\n2*x - y <= 2\n-x + y <= 1\nnonneg: all\n"
# Bounded by x + y <= 4, a row with no negative coefficient: no probe.
CAPPED = "vars: x y\nx - y <= 1\nx + y <= 4\nnonneg: all\n"
# No row mentions l3, the 0 <= 0 row's multiplier: it takes the zero move.
ZERO_MOVE_CONE = "vars: x1 x2\ncone\nx1 - x2 <= 0\n0*x1 <= 0\nnonneg: all\n"
# No main rows: the working system has only l1, so no move is made.
NO_MAIN_ROWS_CONE = "vars: x\ncone\nnonneg: all\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("sec2", SECTION2),
        ("sec2_inf", SECTION2_INFEASIBLE),
        ("solvable", SOLVABLE_CONE),
        ("pinched", PINCHED_CONE),
        ("uncapped", UNCAPPED_BOUNDED),
        ("capped", CAPPED),
        ("zero_move", ZERO_MOVE_CONE),
        ("no_main_rows", NO_MAIN_ROWS_CONE),
    ]:
        p = tmp_path / f"{name}.sys"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, SCHEMA)
    return code, data


def test_check_feasible(files, capsys):
    code, data = run_json(capsys, ["check", files["sec2"]])
    assert code == 0
    assert data["feasible"] is True
    assert set(data["witness"]) == {"x", "y"}
    assert data["certificate"] is None


def test_check_infeasible(files, capsys):
    code, data = run_json(capsys, ["check", files["sec2_inf"]])
    assert code == 1
    assert data["feasible"] is False
    assert data["certificate"] == {"0": "1", "1": "1"}


def test_check_human_output(files, capsys):
    assert main(["check", files["sec2"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("feasible")
    assert "witness:" in out


def test_check_quiet(files, capsys):
    assert main(["check", files["sec2"], "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/file.sys"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("vars: x\nx <=\n")
    assert main(["check", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_internal_error_has_its_own_exit_code(files, capsys, monkeypatch):
    import lincert.cli
    from lincert.core import InvariantError

    def broken(system):
        raise InvariantError("oracle witness failed verification")

    monkeypatch.setattr(lincert.cli, "feasibility", broken)
    assert main(["check", files["sec2"]]) == 4
    assert capsys.readouterr().err == "internal error: oracle witness failed verification\n"


def test_a_wrong_farkas_certificate_exits_4(files, capsys, monkeypatch):
    # feasibility checks the certificate it replays, so `check` reports a
    # wrong one as an internal error rather than printing it.
    from lincert.core import MultiplierVector

    monkeypatch.setattr("lincert.fourier.farkas_from_trace", lambda trace, cid: MultiplierVector.of({0: 1}))
    assert main(["check", files["sec2_inf"], "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: Farkas certificate does not combine the rows into a contradiction\n"


def test_a_witness_off_the_system_exits_4(files, capsys, monkeypatch):
    # feasibility checks the witness it makes, so `check` reports one that
    # fails a row as an internal error rather than printing it.  The origin
    # fails x - y <= -1 (row 1).
    monkeypatch.setattr("lincert.fourier._back_substitute", lambda history, nvars: ([0] * nvars, 1))
    assert main(["check", files["sec2"], "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: witness fails constraint 1\n"


def test_fourier_projection(files, capsys):
    code, data = run_json(capsys, ["fourier", files["sec2"], "--eliminate", "x"])
    assert code == 0
    assert "vars: x y" in data["system"]
    assert "x" not in data["system"].splitlines()[1]  # first row mentions only y


def test_fourier_unknown_variable(files, capsys):
    assert main(["fourier", files["sec2"], "--eliminate", "q"]) == 2


def test_dual_output_parses_back(files, capsys, tmp_path):
    code, data = run_json(capsys, ["dual", files["sec2"]])
    assert code == 0
    from lincert.sysfile import parse

    dual = parse(data["system"])
    assert dual.variables == ("l1", "l2")
    assert data["origin"] == {"l1": 0, "l2": 1}
    assert data["strong"] is False


def test_dual_human_has_origin_comments(files, capsys):
    assert main(["dual", files["sec2"]]) == 0
    out = capsys.readouterr().out
    assert "# l1 <- row 0: -x + y <= 2" in out
    assert "# extension" in out


def test_dual_strong_with_objective_and_sigma(files, capsys):
    code, data = run_json(
        capsys, ["dual", files["solvable"], "--strong", "--objective", "x + y", "--sigma", "2"]
    )
    assert code == 0
    assert data["strong"] is True and data["sigma"] == "2"


def test_dual_strong_needs_objective(files, capsys):
    assert main(["dual", files["sec2"], "--strong"]) == 2


def test_dual_strong_refuses_an_empty_objective(tmp_path, capsys):
    # An empty --objective is an expression to parse, not a missing flag:
    # the file's maximize: line must not stand in for it.
    p = tmp_path / "max.sys"
    p.write_text("vars: x y\nmaximize: x + y\n-x + y <= 2\nx - y <= -1\nnonneg: all\n")
    assert main(["dual", str(p), "--strong", "--objective", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --objective: empty expression\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--objective", "x +"], "--objective: cannot read term at '+'"),
        (["--objective", "x + z"], "--objective: unknown variable 'z'"),
        (["--objective", "x", "--sigma", "abc"], "--sigma: expected a rational number, got 'abc'"),
        (["--objective", "x", "--sigma", "1/0"], "--sigma: zero denominator in '1/0'"),
    ],
    ids=["objective-dangling-sign", "objective-unknown-variable", "sigma-not-a-number", "sigma-zero-denominator"],
)
def test_dual_strong_flag_errors_name_the_flag(files, capsys, flags, message):
    # A flag has no file line, so its parse error names the flag instead.
    assert main(["dual", files["sec2"], "--strong", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags, attached, sigma",
    [
        (["--objective", "x", "--sigma", "-3/2"], ["--objective", "x", "--sigma=-3/2"], "-3/2"),
        (["--objective", "-x"], ["--objective=-x"], None),
        (["--objective", "-x", "--sigma", "-1"], ["--objective=-x", "--sigma=-1"], "-1"),
    ],
    ids=["sigma-negative-fraction", "objective-leading-minus", "both"],
)
def test_dual_strong_takes_flag_values_that_start_with_a_minus(files, capsys, flags, attached, sigma):
    # argparse alone reads "-3/2" or "-x" after a flag as an option of its
    # own and exits 2; the value must reach the parser as with "=".
    code, data = run_json(capsys, ["dual", files["sec2"], "--strong", *flags])
    assert code == 0
    assert data["sigma"] == sigma
    assert data == run_json(capsys, ["dual", files["sec2"], "--strong", *attached])[1]


@pytest.mark.parametrize("flags", [["--sigma", "3"], ["--objective", "x"], ["--objective", "x", "--sigma", "3"]])
def test_dual_refuses_strong_dual_flags_without_strong(files, capsys, flags):
    assert main(["dual", files["sec2"], *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --objective and --sigma need --strong\n"


def test_implicit_report(tmp_path, capsys):
    p = tmp_path / "im.sys"
    p.write_text("vars: y\n-3*y <= 0\ny <= 0\n")
    code, data = run_json(capsys, ["implicit", str(p)])
    assert code == 0
    assert data["feasible"] is True
    assert data["implicit_ids"] == [0, 1]
    lam = {k: data["certificate"][k] for k in data["certificate"]}
    assert set(lam) == {"0", "1"}


def test_cone_analyze(files, capsys):
    code, data = run_json(capsys, ["cone", files["sec2"], "--analyze"])
    assert code == 0
    assert data["z"] == "z"
    assert data["analysis"] == {
        "bounded": False,
        "reduced_to_origin": False,
        "full_dimensional": True,
    }


@pytest.mark.parametrize("name", ["uncapped", "capped"])
def test_cone_analyze_bounded(files, capsys, name):
    code, data = run_json(capsys, ["cone", files[name], "--analyze"])
    assert code == 0
    assert data["analysis"] == {
        "bounded": True,
        "reduced_to_origin": False,
        "full_dimensional": True,
    }


def test_cone_of_cone_input_is_identity(files, capsys):
    code, data = run_json(capsys, ["cone", files["pinched"], "--analyze"])
    assert code == 0
    assert data["z"] is None
    assert data["analysis"]["reduced_to_origin"] is True


def test_solve9_main_example_with_documented_sequence(files, capsys):
    code, data = run_json(
        capsys,
        ["solve9", files["solvable"], "--rule", "paper-seq:l3@row-x,l2@row-y,l4@sign-l3", "--trace"],
    )
    assert code == 0
    assert data["verdict"] == "solvable"
    assert data["interval"]["text"] == "[1, 1]"
    assert [s["kind"] for s in data["steps"]] == [
        "original-main",
        "original-main",
        "converted-sign",
    ]
    assert all(s["system"] for s in data["steps"])


def test_solve9_final_example_documented_sequence(files, capsys):
    code, data = run_json(
        capsys,
        ["solve9", files["pinched"], "--rule", "paper-seq:l3@row-x,l2@sign-l3"],
    )
    assert code == 1
    assert data["verdict"] == "unsolvable"
    assert data["interval"]["text"] == "[0, 1]"


def test_solve9_replays_an_explore_witness_with_a_zero_move(files, capsys):
    code, data = run_json(capsys, ["solve9", files["zero_move"], "--explore"])
    assert code == 0
    assert [o["sequence"] for o in data["explore"]["outcomes"]] == [[["l2", "row-x1"], ["l3", "zero"]]]
    code, data = run_json(capsys, ["solve9", files["zero_move"], "--rule", "paper-seq:l2@row-x1,l3@zero"])
    assert code == 0
    assert data["verdict"] == "solvable"
    assert [(s["pivot"], s["kind"]) for s in data["steps"]] == [("row-x1", "original-main"), (None, "fallback-zero")]
    assert main(["solve9", files["zero_move"], "--rule", "paper-seq:l2@zero,l3@zero"]) == 2
    assert capsys.readouterr().err == "error: l2 cannot take the zero move: a pivotable row mentions it\n"


@pytest.mark.parametrize("name", ["no_main_rows", "zero_move", "pinched"])
def test_solve9_explore_witnesses_replay_from_their_printed_text(files, capsys, name):
    # Each witness prints its moves as paper-seq: lists them, or main-first
    # when it makes none (the empty sequence is the default rule).
    main(["solve9", files[name], "--explore"])
    lines = capsys.readouterr().out.splitlines()
    witnesses = [line.split(" ", 3)[3].split(" via ") for line in lines if line.startswith("  ")]
    assert witnesses
    for interval, via in witnesses:
        main(["solve9", files[name], "--rule", via if via == "main-first" else f"paper-seq:{via}"])
        assert f"terminal interval for l1: {interval}" in capsys.readouterr().out.splitlines()
    if name == "no_main_rows":
        assert witnesses == [["[1, 1]", "main-first"]]
        _, data = run_json(capsys, ["solve9", files[name], "--explore"])
        assert [o["sequence"] for o in data["explore"]["outcomes"]] == [[]]


def test_solve9_explore_flags_sensitivity(files, capsys):
    code, data = run_json(capsys, ["solve9", files["pinched"], "--explore"])
    assert code == 3
    assert data["explore"]["pivot_sensitive"] is True
    texts = {o["interval"]["text"] for o in data["explore"]["outcomes"]}
    assert len(texts) >= 2


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_solve9_prints_each_system_once(files, capsys, monkeypatch, trace, as_json):
    # One print per step system under --trace, the last of which is the
    # terminal system, or one for the terminal system alone, whichever the
    # output mode; the working system only for --json.  Every system is
    # printed from the trace's integer rows, none through print_system.
    import lincert.cli
    import lincert.pipeline

    printed = []

    def counting(names, rows, *args):
        printed.append(rows)
        return original(names, rows, *args)

    original = lincert.pipeline._print_scaled_rows
    monkeypatch.setattr(lincert.pipeline, "_print_scaled_rows", counting)
    monkeypatch.setattr(lincert.cli, "print_system", None)
    argv = ["solve9", files["solvable"], "--rule", "paper-seq:l3@row-x,l2@row-y,l4@sign-l3"]
    assert main(argv + ["--trace"] * trace + ["--json"] * as_json) == 0
    capsys.readouterr()
    assert len(printed) == len({id(rows) for rows in printed})
    assert len(printed) == (3 if trace else 1) + as_json


@pytest.mark.parametrize("command", ["check", "implicit"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_input_system_is_printed_only_for_json(files, capsys, monkeypatch, command, as_json):
    # The printed input goes into the --json payload's system field; the
    # text output shows none, so text mode prints nothing.
    import lincert.cli

    printed = []

    def counting(system, *args, **kwargs):
        printed.append(system)
        return print_system(system, *args, **kwargs)

    monkeypatch.setattr(lincert.cli, "print_system", counting)
    main([command, files["sec2"]] + ["--json"] * as_json)
    out = capsys.readouterr().out
    assert len(printed) == as_json
    if as_json:
        assert json.loads(out)["system"] == print_system(printed[0])
    else:
        assert "vars:" not in out


def test_solve9_rejects_unbounded(files, tmp_path, capsys):
    p = tmp_path / "unbounded.sys"
    p.write_text("vars: x y\nx - y <= 0\nnonneg: all\n")
    assert main(["solve9", str(p)]) == 2


def test_solve9_bad_rule(files, capsys):
    assert main(["solve9", files["solvable"], "--rule", "nonsense"]) == 2
    assert main(["solve9", files["solvable"], "--rule", "paper-seq:l3row-x"]) == 2


def test_difftest_json_deterministic(capsys):
    code, data = run_json(capsys, ["difftest", "--seed", "42", "--trials", "10"])
    assert code == 0
    wall_a = data.pop("wall_clock_seconds")
    code, data2 = run_json(capsys, ["difftest", "--seed", "42", "--trials", "10"])
    data2.pop("wall_clock_seconds")
    assert wall_a >= 0
    assert data == data2
    assert data["trial_count"] == 10


@pytest.mark.parametrize("flag", ["--max-vars", "--max-cons"])
def test_difftest_rejects_an_empty_size_range(capsys, flag):
    assert main(["difftest", "--seed", "1", "--trials", "1", flag, "0"]) == 2
    assert capsys.readouterr().err == f"error: {flag[2:].replace('-', '_')} must be at least 1\n"


def test_difftest_rejects_a_negative_trial_count(capsys):
    assert main(["difftest", "--seed", "1", "--trials", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: trials must be at least 0, not -1\n")


def test_difftest_human_summary(capsys):
    assert main(["difftest", "--seed", "5", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert "trials: 3" in out
    assert "agreement rate:" in out


def test_console_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "lincert.cli", "check", files["sec2_inf"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "infeasible" in proc.stdout


def _cli_outcome(text, row_id):
    """What check, implicit and cone --analyze decide about a system file:
    each exit code, implicit's feasible flag and implicit row ids mapped
    through row_id, and the cone analysis's three flags (None where a
    command refuses)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.sys"
        path.write_text(text)
        outcome = []
        for argv in (["check"], ["implicit"], ["cone", "--analyze"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([argv[0], str(path), *argv[1:], "--json"])
            outcome.append((code, json.loads(out.getvalue()) if code in (0, 1) else None))
    (check, _), (implicit_code, implicit), (cone, analysis) = outcome
    return (
        check,
        implicit_code,
        implicit and (implicit["feasible"], frozenset(row_id[cid] for cid in implicit["implicit_ids"])),
        cone,
        analysis and analysis["analysis"],
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_renaming_and_permuting_a_file_keeps_what_the_cli_decides(data):
    """Renaming the variables, permuting the variable table, the rows and
    the nonneg list changes no verdict: each command's exit code,
    implicit's feasible flag and implicit rows (mapped through the row
    permutation) and cone --analyze's three flags stay.  solve9 is left
    out: its default main-first pivot rule reads the rows in file order."""
    nvars = data.draw(st.integers(1, 3))
    old = [f"x{i}" for i in range(nvars)]
    new = data.draw(st.permutations([f"v{i}" for i in range(nvars)]))
    rename = dict(zip(old, new))
    coefficient = st.integers(-3, 3)
    # cone --analyze refuses strict rows and unsigned variables, so most
    # draws have neither.
    relations = data.draw(st.sampled_from([("<=", ">="), ("<=", ">="), ("<=", "<", ">=", ">")]))
    rows = data.draw(
        st.lists(
            st.tuples(st.lists(coefficient, min_size=nvars, max_size=nvars), st.sampled_from(relations), coefficient),
            min_size=1,
            max_size=5,
        )
    )
    signed = data.draw(st.sampled_from([old, old, None])) or data.draw(st.lists(st.sampled_from(old), unique=True))

    def file_text(names, table, rows, signed):
        lines = [f"vars: {' '.join(table)}"]
        for coeffs, rel, rhs in rows:
            terms = dict(zip(names, coeffs))
            lhs = " ".join(f"{'-' if terms[n] < 0 else '+'} {abs(terms[n])}*{n}" for n in table)
            lines.append(f"{lhs} {rel} {rhs}")
        if signed:
            lines.append(f"nonneg: {' '.join(signed)}")
        return "\n".join(lines) + "\n"

    row_order = data.draw(st.permutations(range(len(rows))))
    sign_order = data.draw(st.permutations(signed))
    renamed = file_text(
        new,
        data.draw(st.permutations(new)),
        [rows[i] for i in row_order],
        [rename[n] for n in sign_order],
    )
    # Row ids: main rows in file order, then one sign row per nonneg name.
    new_id = {i: row_order.index(i) for i in range(len(rows))}
    new_id.update({len(rows) + signed.index(n): len(rows) + sign_order.index(n) for n in signed})

    same_id = {cid: cid for cid in new_id.values()}
    assert _cli_outcome(renamed, same_id) == _cli_outcome(file_text(old, old, rows, signed), new_id)
