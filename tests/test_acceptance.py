"""Acceptance suite: one test per shipped guarantee.

Each test prints a PASS line with its wall-clock time so a plain
`pytest tests/test_acceptance.py -s` reads as a checklist.  Golden values
come from the worked feasibility/duality examples; the quantified checks run
on seeded streams so every run sees the same instances.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from lincert.cli import main
from lincert.cone import is_reduced_to_origin, primal_cone
from lincert.core import (
    MultiplierVector,
    Point,
    check_multiplier_certificate,
    evaluate,
    make_system,
)
from lincert.dual import elementary_dual, extension_status, multipliers_from_primal_solution
from lincert.fourier import (
    eliminate_var,
    feasibility,
    is_infeasibility_certificate,
    normalized_key,
)
from lincert.gauss import classify, reverse_multipliers, substitute_through, transfer_multipliers
from lincert.harness import CounterStream, GenParams, generate_bounded, run_difftest
from lincert.implicit import implicit_set
from lincert.pipeline import explore, pivot_sequence, run
from lincert.cone import has_solution_at_infinity
from lincert.sysfile import parse

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "baseline" / "difftest-seed42-trials500.json"


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.2f}s over budget {self.seconds}s"
            print(f"PASS {self.name} ({elapsed:.2f}s)")
        return False


def section2_primal(rhs1=2, rhs2=-1):
    return make_system(
        ["x", "y"],
        mains=[({"x": -1, "y": 1}, "<=", rhs1), ({"x": 1, "y": -1}, "<=", rhs2)],
        nonneg="all",
    )


def test_criterion_1_dual_fidelity():
    with Budget("criterion 1: dual multipliers of the worked example", 1.0):
        primal = section2_primal()
        dual = elementary_dual(primal)
        lam = multipliers_from_primal_solution(
            primal, dual, Point.from_names(primal, {"x": 0, "y": 1})
        )
        ordered = (
            lam.get(dual.row_for_var(0)),
            lam.get(dual.row_for_var(1)),
            lam.get(dual.sign_id(0)),
            lam.get(dual.sign_id(1)),
            lam.get(dual.extension_id),
        )
        assert ordered == (0, 1, 1, 0, 1)
        assert check_multiplier_certificate(dual.system, lam)


def test_criterion_2_farkas_case(tmp_path, capsys):
    with Budget("criterion 2: Farkas case with flipped right sides", 1.0):
        primal = section2_primal(rhs1=-2, rhs2=1)
        status = extension_status(elementary_dual(primal))
        assert not status.implicit
        assert status.witness == Point.of({0: 1, 1: 1})
        ext = elementary_dual(primal).system.constraint(elementary_dual(primal).extension_id)
        assert -ext.expr.value_at(status.witness) == 1

        path = tmp_path / "infeasible.sys"
        path.write_text("vars: x y\n-x + y <= -2\nx - y <= 1\nnonneg: all\n")
        code = main(["check", str(path), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1 and data["feasible"] is False
        lam = MultiplierVector.of({int(k): Fraction(v) for k, v in data["certificate"].items()})
        from lincert.sysfile import parse

        assert is_infeasibility_certificate(parse(path.read_text()), lam)


def test_criterion_3_parasite_example():
    with Budget("criterion 3: parasite multipliers", 1.0):
        cone = make_system(
            ["x", "y"],
            mains=[
                ({"x": 1, "y": 1}, "<=", 0),
                ({"x": 2, "y": -1}, "<=", 0),
                ({"x": -1, "y": 2}, "<=", 0),
            ],
        )
        projected, _ = eliminate_var(cone, 0)
        expected = make_system(["x", "y"], mains=[({"y": 1}, "<=", 0), ({"y": 3}, "<=", 0)])
        assert {normalized_key(c) for c in projected.constraints} == {
            normalized_key(c) for c in expected.constraints
        }
        assert implicit_set(projected).implicit_ids == frozenset()

        substituted = substitute_through(cone, 0, 0)
        report = implicit_set(substituted)
        assert report.implicit_ids == {1, 2}
        lam = report.certificate
        # Contributions lam_i * row_i match the reference pair
        # (1 * -3y, 3 * y) up to one common positive scale.
        c1 = lam.get(1) * substituted.constraint(1).expr.coeff(1)
        c2 = lam.get(2) * substituted.constraint(2).expr.coeff(1)
        assert c1 < 0 < c2 and c1 == -c2
        scale = c2 / 3
        assert scale > 0 and c1 == scale * -3

        # Stated on the reference scaling of the rows, the certificate is
        # exactly (1, 3) up to one positive factor.
        reference = make_system(["y"], mains=[({"y": -3}, "<=", 0), ({"y": 1}, "<=", 0)])
        ref_cert = implicit_set(reference).certificate
        assert ref_cert.get(1) == 3 * ref_cert.get(0) and ref_cert.get(0) > 0

        cls = classify(cone, 0, 0)
        result = reverse_multipliers(cls, lam)
        assert not result.legitimate and result.pivot_weight < 0


SOLVABLE_CONE = make_system(
    ["x", "y"],
    mains=[
        ({"x": 1, "y": -2}, "<=", 0),
        ({"x": 1, "y": -1}, "<=", 0),
        ({"x": 1, "y": -3}, "<=", 0),
    ],
    nonneg="all",
    is_cone=True,
)
PINCHED_CONE = make_system(
    ["x", "y"],
    mains=[({"x": 1, "y": 1}, "<=", 0), ({"x": -1, "y": -1}, "<=", 0)],
    nonneg="all",
    is_cone=True,
)


def test_criterion_4_solvable_example():
    with Budget("criterion 4: elimination loop on the solvable cone", 1.0):
        trace = run(SOLVABLE_CONE, pivot_sequence([("l3", "row-x"), ("l2", "row-y"), ("l4", "sign-l3")]))
        expected = make_system(
            ["l1", "l2", "l3", "l4"],
            mains=[
                ({"l1": 2}, "<=", 2),
                ({"l1": 2}, "<=", 2),
                ({"l1": -3}, "<=", -3),
                ({"l1": -1}, "<=", 0),
            ],
        )
        assert sorted(normalized_key(c) for c in trace.terminal.constraints) == sorted(
            normalized_key(c) for c in expected.constraints
        )
        assert trace.interval.lo == trace.interval.hi == 1
        assert not trace.interval.lo_open and not trace.interval.hi_open
        assert trace.verdict == "solvable"
        assert not is_reduced_to_origin(SOLVABLE_CONE)


def test_criterion_5_unsolvable_example_and_sensitivity():
    with Budget("criterion 5: pinched cone and pivot sensitivity", 5.0):
        trace = run(PINCHED_CONE, pivot_sequence([("l3", "row-x"), ("l2", "sign-l3")]))
        assert trace.interval.lo == 0 and trace.interval.hi == 1
        assert not trace.interval.lo_open and not trace.interval.hi_open
        assert trace.verdict == "unsolvable"
        assert is_reduced_to_origin(PINCHED_CONE)
        result = explore(PINCHED_CONE)
        assert len({o.interval for o in result.outcomes}) >= 2
        assert result.pivot_sensitive


def test_criterion_6_oracle_self_certification():
    with Budget("criterion 6: oracle evidence on 1000 seeded systems", 120.0):
        stream = CounterStream(20240, "oracle-self-cert")
        for _ in range(1000):
            nvars = stream.randint(1, 4)
            names = [f"x{i + 1}" for i in range(nvars)]
            rows = []
            for _ in range(stream.randint(1, 6)):
                coeffs = {n: stream.randint(-5, 5) for n in names}
                rows.append((coeffs, "<=", stream.randint(-5, 5)))
            system = make_system(names, mains=rows)
            verdict = feasibility(system)
            if verdict.feasible:
                assert all(evaluate(c, verdict.witness) for c in system.constraints)
            else:
                assert not verdict.certificate.is_zero
                assert is_infeasibility_certificate(system, verdict.certificate)


# Planted at (1, 3, 3, 2, 3); 4 of the 10 rows are strict.  Elimination
# without history pruning ran past 30 s on this system.
FIVE_BY_TEN = """vars: x1 x2 x3 x4 x5
-2*x1 + 3*x2 - x3 - 4*x4 - 5*x5 <= -19
3*x1 + 5*x2 + 3*x3 + x4 + x5 < 36
-2*x1 + 5*x2 - 2*x3 - 2*x4 + 2*x5 < 10
3*x1 + x2 + 3*x3 + 2*x4 + 2*x5 < 29
2*x1 - 3*x2 + x3 + 3*x4 - x5 <= 1
-2*x1 - 3*x2 + 4*x3 - 3*x4 - 4*x5 <= -13
-2*x1 - 4*x2 + x3 + 2*x4 - 4*x5 <= -15
3*x1 + 4*x2 - 5*x3 + 4*x4 + 3*x5 <= 20
-5*x1 - 2*x2 - 3*x3 - 3*x4 - 2*x5 <= -29
4*x1 - 3*x2 - 2*x3 - 3*x4 + 3*x5 < -4
"""


def test_five_variable_reach():
    with Budget("reach: 5 variables, 10 rows, 4 strict", 5.0):
        system = parse(FIVE_BY_TEN)
        assert len(system.variables) == 5 and len(system.constraints) == 10
        for order in (None, "greedy"):
            verdict = feasibility(system, order=order)
            assert verdict.feasible
            assert all(evaluate(c, verdict.witness) for c in system.constraints)


def test_explore_reach_heavy_class():
    # Seed-42 trial 229, 3 variables and 2 drawn rows: its pivot tree used to
    # pass the default 4000-state budget after about 4 s; scale-merged
    # integer states finish it in a few hundred.
    with Budget("reach: explore on seed-42 trial 229", 5.0):
        system = generate_bounded(CounterStream(42, "trial-229"), GenParams(seed=42))
        assert len(system.variables) == 3 and len(system.main_rows()) == 5
        result = explore(system)
        assert result.pivot_sensitive


def _random_standard(stream, max_vars=4, max_rows=6, bound=5, homogeneous=False):
    nvars = stream.randint(1, max_vars)
    names = [f"x{i + 1}" for i in range(nvars)]
    rows = []
    for _ in range(stream.randint(1, max_rows)):
        coeffs = {n: stream.randint(-bound, bound) for n in names}
        rhs = 0 if homogeneous else stream.randint(-bound, bound)
        rows.append((coeffs, "<=", rhs))
    return make_system(names, mains=rows, nonneg="all")


def test_criterion_7_solution_and_ray_maps():
    with Budget("criterion 7: primal points and rays as dual multipliers", 120.0):
        stream = CounterStream(20241, "solution-map")
        done = 0
        while done < 200:
            primal = _random_standard(stream)
            verdict = feasibility(primal)
            if not verdict.feasible:
                continue
            done += 1
            dual = elementary_dual(primal)
            lam = multipliers_from_primal_solution(primal, dual, verdict.witness)
            assert lam.get(dual.extension_id) == 1
            assert check_multiplier_certificate(dual.system, lam)

        stream = CounterStream(20242, "ray-map")
        done = 0
        while done < 200:
            primal = _random_standard(stream)
            flag, ray = has_solution_at_infinity(primal)
            if not flag:
                continue
            done += 1
            dual = elementary_dual(primal)
            lam = multipliers_from_primal_solution(primal, dual, ray, at_infinity=True)
            assert lam.get(dual.extension_id) == 0
            assert check_multiplier_certificate(dual.system, lam)


def test_criterion_8_cone_dichotomy():
    with Budget("criterion 8: cone reduced-to-origin vs feasibility", 120.0):
        params = GenParams(seed=20243)
        for i in range(200):
            primal = generate_bounded(CounterStream(params.seed, f"trial-{i}"), params)
            cone = primal_cone(primal)
            assert feasibility(primal).feasible == (not is_reduced_to_origin(cone.system))


def test_criterion_9_transfer_round_trip():
    with Budget("criterion 9: multiplier transfer round trip", 60.0):
        stream = CounterStream(20244, "planted")
        done = 0
        while done < 200:
            nvars = stream.randint(1, 3)
            names = [f"x{i + 1}" for i in range(nvars)]
            k = stream.randint(2, 4)
            rows = [{n: stream.randint(-3, 3) for n in names} for _ in range(k - 1)]
            weights = [Fraction(stream.randint(1, 4)) for _ in range(k)]
            sign_weights = [Fraction(stream.randint(0, 2)) for _ in range(nvars)]
            total = {n: Fraction(0) for n in names}
            for row, w in zip(rows, weights[:-1]):
                for n, c in row.items():
                    total[n] += w * c
            for i, n in enumerate(names):
                total[n] -= sign_weights[i]
            rows.append({n: -total[n] / weights[-1] for n in names})
            system = make_system(names, mains=[(r, "<=", 0) for r in rows], nonneg="all")
            mu = MultiplierVector.of(
                {i: weights[i] for i in range(k)}
                | {k + i: sign_weights[i] for i in range(nvars)}
            )
            assert check_multiplier_certificate(system, mu)
            pivots = [
                (v, c.cid)
                for c in system.main_rows()
                for v, _ in c.expr.terms
                if not c.expr.drop(v).is_zero
            ]
            if not pivots:
                continue
            done += 1
            var, pid = pivots[stream.randint(0, len(pivots) - 1)]
            cls = classify(system, var, pid)
            moved = transfer_multipliers(cls, mu)
            out = substitute_through(system, var, pid)
            assert check_multiplier_certificate(out, moved)
            result = reverse_multipliers(cls, moved)
            assert result.legitimate and result.multipliers == mu


def test_criterion_10_differential_baseline():
    with Budget("criterion 10: differential baseline, seed 42, 500 trials", 60.0):
        assert BASELINE.exists(), "baseline report is committed with the repository"
        report = run_difftest(GenParams(seed=42), 500)
        fresh = report.to_dict(include_wall_clock=False)
        committed = json.loads(BASELINE.read_text())
        committed.pop("wall_clock_seconds", None)
        assert fresh["agreement_rate"] == committed["agreement_rate"]
        assert fresh == committed
        # Disagreement witnesses replay to the same pair of verdicts.
        from lincert.harness import oracle_verdict
        from lincert.sysfile import parse

        for idx in fresh["disagreements"]:
            trial = fresh["trials"][idx]
            system = parse(trial["system"])
            assert oracle_verdict(system) == trial["oracle_feasible"]
            assert run(system).solvable == trial["pipeline_solvable"]